from itertools import product

import pytest

from vndim.cli import main
from vndim.errors import EvenResidue, NotPrimePower, TooLarge
from vndim.finite_field import (
    PrimePower,
    brute_force_regular_characters,
    count_regular_characters,
    enumerate_gl2,
    factors_through_norm,
    field_model,
    finite_rep_dims,
    group_orders,
    hilbert90_count,
    is_prime,
    is_regular,
    norm_trace_facts,
    restricts_to,
)
from vndim.padic import HaarNormalization, PadicRep, vn_dimension_padic
from vndim.tables import build_table

SMALL_Q = (3, 5, 7, 9)


def test_prime_power_parsing():
    assert PrimePower.from_int(3) == PrimePower(3, 1)
    assert PrimePower.from_int(9) == PrimePower(3, 2)
    assert PrimePower.from_int(49) == PrimePower(7, 2)
    with pytest.raises(EvenResidue):
        PrimePower.from_int(2)
    with pytest.raises(EvenResidue):
        PrimePower.from_int(8)
    with pytest.raises(NotPrimePower):
        PrimePower.from_int(15)
    with pytest.raises(NotPrimePower):
        PrimePower.from_int(1)


def test_group_orders_small_values():
    assert group_orders(3) == group_orders(PrimePower(3, 1))
    o3 = group_orders(3)
    assert (o3.gl2_order, o3.borel_order, o3.borel_index) == (48, 12, 4)
    o5 = group_orders(5)
    assert (o5.gl2_order, o5.borel_order, o5.borel_index) == (480, 80, 6)


def test_group_orders_index_relation():
    for q in SMALL_Q:
        o = group_orders(q)
        assert o.gl2_order == o.borel_order * o.borel_index


def test_enumeration_matches_formulas():
    for q in SMALL_Q:
        counted = enumerate_gl2(q)
        o = group_orders(q)
        assert counted.counted_order == o.gl2_order
        assert counted.counted_borel == o.borel_order


def test_enumeration_guard():
    with pytest.raises(TooLarge):
        enumerate_gl2(11)


def test_deterministic_field_model():
    # over Z/3 the first irreducible monic quadratic is x^2 + 1
    model = field_model(9)
    assert model.modulus == (0, 1)
    assert len(list(model.elements())) == 9


def test_is_regular_small_cases():
    assert not is_regular(3, 0)
    assert is_regular(3, 1)
    assert not is_regular(3, 4)  # 3*4 = 12 = 4 mod 8


def test_regular_iff_not_factoring_through_norm():
    # enumeration check of the characterization, trivial character included
    for q in SMALL_Q:
        for a in range(q * q - 1):
            assert is_regular(q, a) == (not factors_through_norm(q, a))


def test_count_regular_closed_form_small_cases():
    assert count_regular_characters(3, 0) == 2
    assert count_regular_characters(3, 1) == 4
    assert count_regular_characters(5, 0) == 4


def test_brute_force_matches_closed_form_everywhere():
    for q in SMALL_Q:
        for nu in range(q - 1):
            assert brute_force_regular_characters(q, nu) == count_regular_characters(q, nu)


def test_brute_force_hand_checked_sets():
    # q = 3: regular indices mod 8 are {1,2,3,5,6,7}; even ones restrict trivially
    regular = [a for a in range(8) if is_regular(3, a)]
    assert regular == [1, 2, 3, 5, 6, 7]
    assert [a for a in regular if restricts_to(3, a, 0)] == [2, 6]
    assert [a for a in regular if restricts_to(3, a, 1)] == [1, 3, 5, 7]
    assert brute_force_regular_characters(3, 0) == 2
    assert brute_force_regular_characters(3, 1) == 4
    assert brute_force_regular_characters(5, 0) == 4


def test_total_regular_count():
    for q in SMALL_Q:
        total = sum(count_regular_characters(q, nu) for nu in range(q - 1))
        assert total == q * q - q
        enumerated = sum(1 for a in range(q * q - 1) if is_regular(q, a))
        assert enumerated == q * q - q


def test_trivial_restriction_regular_count():
    for q in SMALL_Q:
        assert brute_force_regular_characters(q, 0) == q - 1


def test_norm_trace_facts():
    for q in SMALL_Q:
        facts = norm_trace_facts(q)
        assert facts.norm_surjective
        assert facts.trace_surjective
        assert facts.norm_kernel_size == q + 1


def test_hilbert_90():
    for q in SMALL_Q:
        assert hilbert90_count(q) == q + 1
        assert hilbert90_count(q) == norm_trace_facts(q).norm_kernel_size


def test_finite_rep_dims():
    d3 = finite_rep_dims(3)
    assert (d3.principal_series_dim, d3.cuspidal_dim, d3.steinberg_dim) == (4, 2, 3)
    d5 = finite_rep_dims(5)
    assert (d5.principal_series_dim, d5.cuspidal_dim, d5.steinberg_dim) == (6, 4, 5)
    d7 = finite_rep_dims(7)
    assert (d7.principal_series_dim, d7.cuspidal_dim, d7.steinberg_dim) == (8, 6, 7)
    for q in SMALL_Q:
        d = finite_rep_dims(q)
        assert d.principal_series_dim == d.steinberg_dim + 1


def test_every_enumeration_refuses_past_the_guard():
    from vndim.finite_field import hilbert90_count

    enumerations = [enumerate_gl2, norm_trace_facts, hilbert90_count,
                    lambda q: brute_force_regular_characters(q, 1)]
    for enumerate_ in enumerations:
        enumerate_(PrimePower(3, 2))  # q = 9 is the largest allowed
        for q in (11, PrimePower(11, 1), 27):
            with pytest.raises(TooLarge, match=r"^q=(11|27) exceeds enumeration guard 9$"):
                enumerate_(q)
        with pytest.raises(NotPrimePower):  # q is validated before the guard
            enumerate_(15)


# -- reference oracles --------------------------------------------------------------

ORACLE_LIMIT = 10**4


def sieve_primes(limit):
    """The primes below limit, by the sieve of Eratosthenes (no trial division)."""
    composite = bytearray(limit)
    primes = []
    for n in range(2, limit):
        if not composite[n]:
            primes.append(n)
            composite[n * n::n] = b"\x01" * len(range(n * n, limit, n))
    return primes


def test_is_prime_matches_a_sieve():
    primes = set(sieve_primes(ORACLE_LIMIT))
    assert len(primes) == 1229
    for n in range(-3, ORACLE_LIMIT):
        assert is_prime(n) == (n in primes), n


def test_prime_power_parsing_matches_a_sieve():
    odd_prime_powers = {}
    for p in sieve_primes(ORACLE_LIMIT)[1:]:
        f = 1
        while p**f < ORACLE_LIMIT:
            odd_prime_powers[p**f] = PrimePower(p, f)
            f += 1
    for n in range(ORACLE_LIMIT):
        if n % 2 == 0:  # 0, 2 and every even n: even before anything else
            with pytest.raises(EvenResidue):
                PrimePower.from_int(n)
        elif n in odd_prime_powers:
            assert PrimePower.from_int(n) == odd_prime_powers[n]
        else:  # 1 and the odd composites with two distinct prime factors
            with pytest.raises(NotPrimePower):
                PrimePower.from_int(n)


def scan_gl2(q):
    """The q^4 scan: test the determinant of every matrix over the explicit field model."""
    field = field_model(q)
    total = upper = 0
    for a, b, c, d in product(list(field.elements()), repeat=4):
        if field.add(field.mul(a, d), field.neg(field.mul(b, c))) != field.zero:
            total += 1
            upper += c == field.zero
    return total, upper


def test_enumeration_matches_the_full_matrix_scan():
    for q in SMALL_Q:
        counted = enumerate_gl2(q)
        assert (counted.counted_order, counted.counted_borel) == scan_gl2(q)


# -- each q is validated once per call ------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: vn_dimension_padic(9, 5, PadicRep.STEINBERG, HaarNormalization.K_ONE),
    lambda: vn_dimension_padic(9, 5, PadicRep.DEPTH_ZERO_CUSPIDAL, HaarNormalization.K_ONE),
    lambda: main(["ff", "countregular", "--q", "9", "--nu", "sign"]),
    lambda: build_table("padic:3:6"),
], ids=["vn_dimension_padic-steinberg", "vn_dimension_padic-cuspidal",
        "cli-countregular-sign", "build_table-padic"])
def test_q_is_validated_once(monkeypatch, capsys, call):
    calls = []
    from_int = PrimePower.from_int.__func__

    def counting(cls, q):
        calls.append(q)
        return from_int(cls, q)

    monkeypatch.setattr(PrimePower, "from_int", classmethod(counting))
    call()
    assert len(calls) == 1, calls
