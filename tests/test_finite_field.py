import pytest

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
    is_regular,
    norm_trace_facts,
    restricts_to,
)

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
