import math
import random
from fractions import Fraction
from itertools import product

import pytest

from vndim.cli import main
from vndim.errors import (
    BadRamification,
    EvenResidue,
    LevelOutOfRange,
    NoSuchLattice,
    NotPrime,
    OddRamifiedConductor,
)
from vndim.padic import (
    INFINITE_VALUATION,
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    ReducedWeylWord,
    cms_steinberg_check,
    depth_zero_formal_dim,
    extension_level_arithmetic,
    haar_volumes,
    ihara_lattice,
    jl_formal_dim,
    lattice_covolume,
    padic_abs,
    padic_valuation,
    parse_jl_class,
    quadratic_extension_count,
    steinberg_formal_dim,
    ultrametric_check,
    vn_dimension_padic,
    weyl_closed_form,
    weyl_enumerate,
    weyl_length_histogram,
    weyl_partial_sum,
)

ALL_NORMS = tuple(HaarNormalization)


def random_rational(rng, zero_ok=True):
    num = rng.randint(-(10**4), 10**4)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 10**4))


# -- valuations -----------------------------------------------------------------


def test_valuation_examples():
    assert padic_valuation(Fraction(18), 3) == 2  # 18 = 2 * 3^2
    assert padic_abs(Fraction(18), 3) == Fraction(1, 9)
    assert padic_valuation(Fraction(0), 5) == INFINITE_VALUATION
    assert padic_abs(Fraction(0), 5) == 0
    assert padic_valuation(Fraction(7, 25), 5) == -2
    assert padic_abs(Fraction(7, 25), 5) == 25


def test_valuation_requires_prime():
    with pytest.raises(NotPrime):
        padic_valuation(Fraction(1), 6)


def test_infinite_valuation_is_above_everything():
    assert INFINITE_VALUATION > 10**100
    assert min(INFINITE_VALUATION, -3) == -3


def test_ultrametric_examples():
    assert ultrametric_check(Fraction(2), Fraction(3), 3)  # |5| = 1 <= 1
    assert ultrametric_check(Fraction(1, 3), Fraction(2, 3), 3)  # |1| = 1 <= 3
    x = Fraction(7, 9)
    assert ultrametric_check(x, -x, 3)  # sum is 0


def test_valuation_properties_random():
    rng = random.Random(1)
    for p in (3, 5, 7):
        for _ in range(500):
            r = random_rational(rng, zero_ok=False)
            s = random_rational(rng, zero_ok=False)
            assert padic_valuation(r * s, p) == padic_valuation(r, p) + padic_valuation(s, p)
            assert padic_valuation(r + s, p) >= min(padic_valuation(r, p), padic_valuation(s, p))
            assert ultrametric_check(r, s, p)
            assert padic_abs(r * s, p) == padic_abs(r, p) * padic_abs(s, p)


def test_sharp_ultrametric_when_values_differ():
    rng = random.Random(2)
    for p in (3, 5, 7):
        for _ in range(200):
            r = random_rational(rng, zero_ok=False)
            s = random_rational(rng, zero_ok=False)
            if padic_abs(r, p) != padic_abs(s, p):
                assert padic_abs(r + s, p) == max(padic_abs(r, p), padic_abs(s, p))


# -- extension levels --------------------------------------------------------------


def test_level_arithmetic_examples():
    r = extension_level_arithmetic(2, 2)
    assert (r.composed_level, r.trace_ideal_exponent) == (4, 2)
    r = extension_level_arithmetic(1, 1)
    assert (r.composed_level, r.trace_ideal_exponent) == (1, 2)
    r = extension_level_arithmetic(3, 2)
    assert (r.composed_level, r.trace_ideal_exponent) == (6, 2)


def test_level_arithmetic_errors():
    with pytest.raises(BadRamification):
        extension_level_arithmetic(2, 3)
    with pytest.raises(LevelOutOfRange):
        extension_level_arithmetic(0, 2)


def test_quadratic_extension_count():
    assert quadratic_extension_count(3) == 3
    assert quadratic_extension_count(5) == 3
    assert quadratic_extension_count(2) == 7
    with pytest.raises(NotPrime):
        quadratic_extension_count(9)


# -- Weyl words -------------------------------------------------------------------


def brute_force_weyl_histogram(max_length):
    """Oracle: freely reduce every string over {w, w'} of length <= max_length."""

    def reduce_word(word):
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                if word[i] == word[i + 1]:
                    word = word[:i] + word[i + 2:]
                    changed = True
                    break
        return word

    seen = set()
    for k in range(max_length + 1):
        for letters in product(("w", "w'"), repeat=k):
            seen.add(reduce_word(letters))
    hist = {}
    for word in seen:
        if len(word) <= max_length:
            hist[len(word)] = hist.get(len(word), 0) + 1
    return hist


def test_weyl_enumerate_small():
    assert [str(w) for w in weyl_enumerate(0)] == ["1"]
    words = weyl_enumerate(3)
    assert [str(w) for w in words] == ["1", "w", "w'", "ww'", "w'w", "ww'w", "w'ww'"]
    assert len(words) == 7


def test_weyl_histogram_two_per_length():
    hist = weyl_length_histogram(10)
    assert hist == {0: 1, **{k: 2 for k in range(1, 11)}}


def test_weyl_enumeration_matches_free_product_oracle():
    for max_length in range(0, 13):
        assert weyl_length_histogram(max_length) == brute_force_weyl_histogram(max_length)


def test_reduced_word_invariants():
    with pytest.raises(ValueError):
        ReducedWeylWord(("w", "w"))
    with pytest.raises(ValueError):
        ReducedWeylWord(("x",))


def test_weyl_partial_sums():
    assert weyl_partial_sum(3, 0) == 2
    assert weyl_partial_sum(3, 1) == Fraction(10, 3)
    assert weyl_closed_form(3) == 4


def test_weyl_tail_is_exact_geometric():
    for q in (3, 5, 7):
        previous = None
        for L in range(0, 61):
            partial = weyl_partial_sum(q, L)
            assert weyl_closed_form(q) - partial == Fraction(4, (q - 1) * q**L)
            if previous is not None:
                assert partial > previous
            previous = partial


# -- Haar volumes and formal dimensions ----------------------------------------------


def test_haar_volumes_at_three():
    v = haar_volumes(3, HaarNormalization.IWAHORI_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (1, 4)
    v = haar_volumes(3, HaarNormalization.K_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (Fraction(1, 4), 1)
    v = haar_volumes(3, HaarNormalization.K_HALF_Q_MINUS_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (Fraction(1, 4), 1)  # coincidence at q = 3
    v = haar_volumes(5, HaarNormalization.K_HALF_Q_MINUS_ONE)
    assert (v.vol_IZ, v.vol_KZ) == (Fraction(1, 3), 2)


def test_haar_iwahori_index_relation():
    for q in (3, 5, 7, 9):
        for norm in ALL_NORMS:
            v = haar_volumes(q, norm)
            assert v.vol_KZ == (q + 1) * v.vol_IZ


def test_steinberg_formal_dim():
    assert steinberg_formal_dim(3, HaarNormalization.IWAHORI_ONE) == Fraction(1, 4)
    assert steinberg_formal_dim(3, HaarNormalization.K_ONE) == 1
    assert steinberg_formal_dim(3, HaarNormalization.K_HALF_Q_MINUS_ONE) == 1
    for q in (3, 5, 7, 9):
        assert steinberg_formal_dim(q, HaarNormalization.K_HALF_Q_MINUS_ONE) == 1


def test_steinberg_matches_weyl_series():
    # the square-integral of the distinguished coefficient is the full series,
    # so the Iwahori-normalized formal dimension is its reciprocal
    for q in (3, 5, 7):
        assert steinberg_formal_dim(q, HaarNormalization.IWAHORI_ONE) == 1 / weyl_closed_form(q)


def test_steinberg_cms_cross_check():
    for q in (3, 5, 7, 9):
        assert steinberg_formal_dim(q, HaarNormalization.K_ONE) == cms_steinberg_check(q, 2)
        assert cms_steinberg_check(q, 2) == Fraction(q - 1, 2)


def test_depth_zero_formal_dim():
    assert depth_zero_formal_dim(3, HaarNormalization.K_ONE) == 2
    assert depth_zero_formal_dim(5, HaarNormalization.K_ONE) == 4
    assert depth_zero_formal_dim(3, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2
    for q in (3, 5, 7, 9):
        assert depth_zero_formal_dim(q, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2


def test_formal_dims_scale_inversely_with_measure():
    for q in (3, 5, 7):
        for norm in ALL_NORMS:
            vol = haar_volumes(q, norm).vol_KZ
            assert steinberg_formal_dim(q, norm) * vol == Fraction(q - 1, 2)
            assert depth_zero_formal_dim(q, norm) * vol == q - 1


# -- lattices -------------------------------------------------------------------------


def test_ihara_lattice_examples():
    assert ihara_lattice(3, 2).h == 1
    assert ihara_lattice(3, 4).h == 3
    with pytest.raises(NoSuchLattice):
        ihara_lattice(5, 2)
    with pytest.raises(NoSuchLattice):
        ihara_lattice(3, 1)


def test_lattice_covolume_examples():
    assert lattice_covolume(3, 2, HaarNormalization.K_ONE) == 1
    assert lattice_covolume(3, 2, HaarNormalization.K_Q_PLUS_ONE) == 4
    assert lattice_covolume(3, 2, HaarNormalization.K_HALF_Q_MINUS_ONE) == 1


def test_lattice_covolume_khalf_is_rank_minus_one():
    for q, n in [(3, 2), (3, 4), (5, 3), (7, 4), (9, 5)]:
        assert lattice_covolume(q, n, HaarNormalization.K_HALF_Q_MINUS_ONE) == n - 1


def test_vn_dimension_padic_examples():
    assert vn_dimension_padic(3, 2, PadicRep.STEINBERG, HaarNormalization.K_ONE) == 1
    assert vn_dimension_padic(3, 4, PadicRep.DEPTH_ZERO_CUSPIDAL, HaarNormalization.K_ONE) == 6
    assert vn_dimension_padic(3, 2, PadicRep.STEINBERG, HaarNormalization.IWAHORI_ONE) == 1


def test_vn_dimension_padic_normalization_invariance():
    for q, n in [(3, 2), (3, 4), (5, 3), (7, 4)]:
        for norm in ALL_NORMS:
            assert vn_dimension_padic(q, n, PadicRep.STEINBERG, norm) == n - 1
            assert vn_dimension_padic(q, n, PadicRep.DEPTH_ZERO_CUSPIDAL, norm) == 2 * (n - 1)


def test_vn_dimension_padic_no_lattice():
    with pytest.raises(NoSuchLattice):
        vn_dimension_padic(5, 2, PadicRep.STEINBERG, HaarNormalization.K_ONE)


# -- Jacquet-Langlands table -------------------------------------------------------------


def test_jl_formal_dims():
    assert jl_formal_dim(3, JLClass(JLTag.GENERALIZED_SPECIAL)) == 1
    assert jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 1)) == 2
    assert jl_formal_dim(3, JLClass(JLTag.RAMIFIED_CUSPIDAL, 2)) == 4
    assert jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 3)) == 18
    assert jl_formal_dim(5, JLClass(JLTag.RAMIFIED_CUSPIDAL, 4)) == 30


def test_jl_ramified_needs_even_conductor():
    with pytest.raises(OddRamifiedConductor):
        JLClass(JLTag.RAMIFIED_CUSPIDAL, 3)
    with pytest.raises(OddRamifiedConductor):
        parse_jl_class("ram:j=1")


def test_jl_rejects_non_prime_order():
    with pytest.raises(NotPrime):
        jl_formal_dim(9, JLClass(JLTag.GENERALIZED_SPECIAL))
    with pytest.raises(EvenResidue):
        jl_formal_dim(2, JLClass(JLTag.GENERALIZED_SPECIAL))


def test_jl_agrees_with_direct_depth_zero_computation():
    # the conductor-1 unramified class and the directly computed depth-zero
    # dimension must agree under the Steinberg-degree-1 normalization
    for p in (3, 5, 7, 11, 13):
        assert jl_formal_dim(p, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 1)) == 2
        assert depth_zero_formal_dim(p, HaarNormalization.K_HALF_Q_MINUS_ONE) == 2


def test_jl_class_parsing():
    assert parse_jl_class("special") == JLClass(JLTag.GENERALIZED_SPECIAL)
    assert parse_jl_class("unram:j=2") == JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2)
    assert parse_jl_class("ram:j=4") == JLClass(JLTag.RAMIFIED_CUSPIDAL, 4)
    for bad in ["bogus", "unram", "unram:j=x", "special:j=1"]:
        with pytest.raises(ValueError):
            parse_jl_class(bad)


def test_infinite_valuation_constant_is_float_inf():
    assert math.isinf(INFINITE_VALUATION)


def test_negative_weyl_length_is_refused():
    from vndim.errors import DomainError, NegativeLength

    assert issubclass(NegativeLength, DomainError)
    for max_length in (-1, -2, -50):
        with pytest.raises(NegativeLength):
            weyl_enumerate(max_length)
        with pytest.raises(NegativeLength):
            weyl_length_histogram(max_length)
        with pytest.raises(NegativeLength):
            weyl_partial_sum(3, max_length)


# -- each public call tests p once ------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: padic_valuation(Fraction(18, 5), 3),
    lambda: padic_abs(Fraction(18, 5), 3),
    lambda: ultrametric_check(Fraction(1, 3), Fraction(2, 3), 3),
    lambda: quadratic_extension_count(3),
    lambda: jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 2)),
    lambda: main(["padic", "valuation", "--r", "18/5", "--p", "3"]),
], ids=["padic_valuation", "padic_abs", "ultrametric_check", "quadratic_extension_count",
        "jl_formal_dim", "cli-valuation"])
def test_p_is_tested_once(monkeypatch, capsys, call):
    import vndim.padic as padic

    calls = []
    is_prime = padic.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(padic, "is_prime", counting)
    call()
    assert calls == [3]


def test_one_test_of_p_still_refuses_a_composite():
    for call in (lambda: padic_abs(Fraction(1), 9),
                 lambda: ultrametric_check(Fraction(1), Fraction(2), 9)):
        with pytest.raises(NotPrime, match="^9 is not prime$"):
            call()


def test_jl_table_tests_p_once(monkeypatch):
    import vndim.padic as padic
    from vndim.tables import build_table

    calls = []
    is_prime = padic.is_prime

    def counting(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(padic, "is_prime", counting)
    table = build_table("jl:3:40")
    assert len(table.rows) == 1 + 40 + 20
    assert calls == [3]


@pytest.mark.parametrize("name, error, message", [
    ("jl:4:3", NotPrime, "the formal-dimension table needs a prime p, got 4"),
    ("jl:2:3", EvenResidue, "the formal-dimension table assumes odd residue order"),
    ("jl:1:0", NotPrime, "the formal-dimension table needs a prime p, got 1"),
])
def test_jl_table_refuses_a_bad_p(name, error, message):
    from vndim.tables import build_table

    with pytest.raises(error) as raised:
        build_table(name)
    assert type(raised.value) is error
    assert str(raised.value) == message
