"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every check is exact (integer or rational equality), no tolerances.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from vndim.cli import main as cli_main
from vndim.errors import NoOccurrence, NonHyperbolic, NoSuchLattice, OddRamifiedConductor
from vndim.exact import PiRational
from vndim.factors import free_group_index, jones_index, matrix_coupling
from vndim.finite_field import (
    brute_force_regular_characters,
    count_regular_characters,
    enumerate_gl2,
    group_orders,
    norm_trace_facts,
)
from vndim.fuchsian import (
    FREE_CONGRUENCE_CHAIN,
    FuchsianSignature,
    catalog,
    covolume,
    cusp_form_dim,
    discrete_series_multiplicity,
    formal_dimension_psl,
    minimal_discrete_series_weight,
    two_lattice_vn_dimension,
    vn_dimension,
)
from vndim.padic import (
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    depth_zero_formal_dim,
    jl_formal_dim,
    padic_abs,
    padic_valuation,
    steinberg_formal_dim,
    ultrametric_check,
    vn_dimension_padic,
    weyl_closed_form,
    weyl_length_histogram,
    weyl_partial_sum,
)

from oracles import cms_steinberg_check

GOLDEN = Path(__file__).parent / "golden"


def _criterion(number, label, checks):
    try:
        checks()
    except Exception:
        print(f"criterion {number:2d} [{label}]: FAIL")
        raise
    print(f"criterion {number:2d} [{label}]: PASS")


def _cli_bytes(capsys, *argv) -> bytes:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out.encode()


def _random_signature(rng):
    while True:
        try:
            return FuchsianSignature(
                rng.randint(0, 4),
                tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4))),
                rng.randint(0, 5),
            )
        except NonHyperbolic:
            continue


def test_criterion_01_table_reproduction(capsys):
    def checks():
        # semantic values, from literals
        for q in range(3, 11):
            assert covolume(catalog(f"H{q}")) == PiRational(1 - Fraction(2, q), 1)
        chain = [catalog(name) for name, _ in FREE_CONGRUENCE_CHAIN]
        assert [covolume(sig) for sig in chain] == [
            PiRational(2, 1), PiRational(4, 1), PiRational(8, 1)
        ]
        for m in (1, 3, 5, 7):
            assert [vn_dimension(sig, m) for sig in chain] == [
                Fraction(m, 2), Fraction(m), Fraction(2 * m)
            ]
        assert [free_group_index(2, 3), free_group_index(3, 5), free_group_index(2, 5)] == [2, 2, 4]
        assert matrix_coupling(2, 3) == Fraction(3, 2)
        assert jones_index(Fraction(3, 2), Fraction(1, 6)) == 9
        # byte-identical golden files
        golden_commands = [
            ("hecke_10.txt", ["table", "hecke:10"]),
            ("free_congruence.txt", ["table", "free-congruence"]),
            ("vn_free_1.txt", ["table", "vn-free:1"]),
            ("vn_free_3.txt", ["table", "vn-free:3"]),
            ("vn_free_5.txt", ["table", "vn-free:5"]),
            ("vn_free_7.txt", ["table", "vn-free:7"]),
            ("fgindex_2_3.txt", ["factor", "fgindex", "--ambient-rank", "2", "--sub-rank", "3"]),
            ("fgindex_3_5.txt", ["factor", "fgindex", "--ambient-rank", "3", "--sub-rank", "5"]),
            ("fgindex_2_5.txt", ["factor", "fgindex", "--ambient-rank", "2", "--sub-rank", "5"]),
            ("coupling_2_3.txt", ["factor", "coupling", "--n", "2", "--k", "3"]),
            ("jones_2x3.txt", ["factor", "jones", "--sub", "3/2", "--ambient", "1/6"]),
        ]
        for filename, argv in golden_commands:
            assert _cli_bytes(capsys, *argv) == (GOLDEN / filename).read_bytes(), filename

    _criterion(1, "table reproduction", checks)


def test_criterion_02_main_identity():
    def checks():
        rng = random.Random(90210)
        for _ in range(50):
            sig = _random_signature(rng)
            m = rng.randrange(1, 100, 2)
            product = formal_dimension_psl(m) * covolume(sig)
            assert product.pi_exp == 0
            assert vn_dimension(sig, m) == product.as_rational()
            c = PiRational(Fraction(rng.randint(1, 1000), rng.randint(1, 1000)))
            rescaled = (formal_dimension_psl(m) * c) * (covolume(sig) / c)
            assert rescaled.as_rational() == vn_dimension(sig, m)

    _criterion(2, "main identity", checks)


def test_criterion_03_integrality():
    def checks():
        for g in range(2, 21):
            sig = FuchsianSignature(g, (), 0)
            for m in range(3, 22, 2):
                value = vn_dimension(sig, m)
                assert value.denominator == 1 and value > 0
                assert value == m * (g - 1)

    _criterion(3, "cocompact integrality", checks)


def test_criterion_04_cusp_form_sanity():
    def checks():
        modular = FuchsianSignature(0, (2, 3), 1)
        free2 = FuchsianSignature(0, (), 3)
        assert cusp_form_dim(modular, 12) == 1
        for k in (4, 6, 8, 10):
            assert cusp_form_dim(modular, k) == 0
        assert cusp_form_dim(free2, 6) == 1
        assert minimal_discrete_series_weight(modular) == 11
        assert minimal_discrete_series_weight(free2) == 5

    _criterion(4, "cusp-form sanity", checks)


def test_criterion_05_two_lattice():
    def checks():
        target = FuchsianSignature(0, (), 3)
        hosts = [catalog(name) for name in
                 [f"H{q}" for q in range(3, 9)] + [name for name, _ in FREE_CONGRUENCE_CHAIN]]
        for m in (3, 5, 11):
            values = set()
            for sig1 in hosts:
                if cusp_form_dim(sig1, m + 1) == 0:
                    with pytest.raises(NoOccurrence):
                        two_lattice_vn_dimension(sig1, target, m)
                else:
                    values.add(two_lattice_vn_dimension(sig1, target, m))
            if values:
                assert values == {vn_dimension(target, m)}
        # both branches were actually exercised at m = 3
        assert any(cusp_form_dim(sig1, 4) == 0 for sig1 in hosts)
        assert any(cusp_form_dim(sig1, 4) > 0 for sig1 in hosts)
        # multiplicity-driven: NoOccurrence exactly when dim S_{m+1}(sig1) = 0
        for sig1 in hosts:
            for m in (1, 3, 5, 7, 9, 11):
                occurs = discrete_series_multiplicity(sig1, m) >= 1
                if occurs:
                    assert two_lattice_vn_dimension(sig1, target, m) == vn_dimension(target, m)
                else:
                    with pytest.raises(NoOccurrence):
                        two_lattice_vn_dimension(sig1, target, m)

    _criterion(5, "two-lattice theorem", checks)


def test_criterion_06_finite_field_oracles():
    def checks():
        started = time.perf_counter()
        for q in (3, 5, 7, 9):
            for nu in range(q - 1):
                assert brute_force_regular_characters(q, nu) == count_regular_characters(q, nu)
            total = sum(count_regular_characters(q, nu) for nu in range(q - 1))
            assert total == q * q - q
            assert norm_trace_facts(q).norm_kernel_size == q + 1
            counted = enumerate_gl2(q)
            orders = group_orders(q)
            assert counted.counted_order == orders.gl2_order
            assert counted.counted_borel == orders.borel_order
        assert (group_orders(3).gl2_order, group_orders(3).borel_order) == (48, 12)
        assert (group_orders(5).gl2_order, group_orders(5).borel_order) == (480, 80)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"

    _criterion(6, "finite-field oracle equivalence", checks)


def test_criterion_07_weyl_series():
    def checks():
        for q in (3, 5, 7):
            for L in range(0, 61):
                tail = weyl_closed_form(q) - weyl_partial_sum(q, L)
                assert tail == Fraction(4, (q - 1) * q**L)
        for L in range(0, 13):
            expected = {0: 1, **{k: 2 for k in range(1, L + 1)}}
            assert weyl_length_histogram(L) == expected
            assert weyl_length_histogram(L) == _free_product_histogram(L)

    _criterion(7, "Weyl length series", checks)


def _free_product_histogram(max_length):
    # independent oracle: freely reduce every {w, w'}-string of length <= L
    from itertools import product as iproduct

    def reduce_word(word):
        stack = []
        for letter in word:
            if stack and stack[-1] == letter:
                stack.pop()
            else:
                stack.append(letter)
        return tuple(stack)

    seen = set()
    for k in range(max_length + 1):
        seen.update(reduce_word(w) for w in iproduct("ab", repeat=k))
    hist = {}
    for word in seen:
        if len(word) <= max_length:
            hist[len(word)] = hist.get(len(word), 0) + 1
    return hist


def test_criterion_08_padic_formal_dimensions():
    def checks():
        assert steinberg_formal_dim(3, HaarNormalization.IWAHORI_ONE) == Fraction(1, 4)
        assert steinberg_formal_dim(3, HaarNormalization.K_ONE) == 1
        assert depth_zero_formal_dim(3, HaarNormalization.K_ONE) == 2
        assert depth_zero_formal_dim(3, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2
        for q in (3, 5, 7):
            assert steinberg_formal_dim(q, HaarNormalization.K_ONE) == cms_steinberg_check(q, 2)
            assert cms_steinberg_check(q, 2) == Fraction(q - 1, 2)

    _criterion(8, "p-adic formal dimensions", checks)


def test_criterion_09_padic_main_theorem():
    def checks():
        for q, n in [(3, 2), (3, 4), (5, 3), (7, 4)]:
            for norm in HaarNormalization:
                assert vn_dimension_padic(q, n, PadicRep.STEINBERG, norm) == n - 1
                assert vn_dimension_padic(q, n, PadicRep.DEPTH_ZERO_CUSPIDAL, norm) == 2 * (n - 1)
        with pytest.raises(NoSuchLattice):
            vn_dimension_padic(5, 2, PadicRep.STEINBERG, HaarNormalization.K_ONE)

    _criterion(9, "p-adic main theorem", checks)


def test_criterion_10_jl_consistency():
    def checks():
        for p in (3, 5, 7, 11, 13):
            assert jl_formal_dim(p, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 1)) == 2
            assert depth_zero_formal_dim(p, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2
        with pytest.raises(OddRamifiedConductor):
            JLClass(JLTag.RAMIFIED_CUSPIDAL, 3)

    _criterion(10, "Jacquet-Langlands consistency", checks)


def test_criterion_11_property_suites():
    def checks():
        rng = random.Random(60187)
        for p in (3, 5, 7):
            for _ in range(10_000):
                r = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
                s = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
                assert ultrametric_check(r, s, p)
                vr, vs = padic_valuation(r, p), padic_valuation(s, p)
                vrs = padic_valuation(r * s, p)
                if r == 0 or s == 0:
                    assert math.isinf(vrs)
                else:
                    assert vrs == vr + vs
                assert padic_valuation(r + s, p) >= min(vr, vs)
                assert padic_abs(r + s, p) <= max(padic_abs(r, p), padic_abs(s, p))
        exponent_pairs = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, -1), (-1, 1)]
        for _ in range(10_000):
            ea, eb = rng.choice(exponent_pairs)
            a = PiRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), ea)
            b = PiRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), eb)
            c = a * b
            assert c.coeff.denominator > 0
            assert math.gcd(abs(c.coeff.numerator), c.coeff.denominator) == 1
            assert c.pi_exp in (-1, 0, 1)
            assert c.coeff != 0 or c.pi_exp == 0

    _criterion(11, "property suites", checks)
