import random
from fractions import Fraction

import pytest

from vndim.errors import (
    InvalidSignature,
    NoOccurrence,
    NonHyperbolic,
    NonPositiveWeight,
    OddWeight,
    ParityViolation,
    UnknownGroup,
)
from vndim.exact import PiRational
from vndim.factors import free_group_index
from vndim.fuchsian import (
    FREE_CONGRUENCE_CHAIN,
    FuchsianSignature,
    GroupMode,
    catalog,
    covolume,
    cusp_form_dim,
    discrete_series_multiplicity,
    formal_dimension_psl,
    minimal_discrete_series_weight,
    parse_signature,
    two_lattice_vn_dimension,
    vn_dimension,
)

MODULAR = FuchsianSignature(0, (2, 3), 1)
FREE2 = FuchsianSignature(0, (), 3)
FREE3 = FuchsianSignature(0, (), 4)
FREE5 = FuchsianSignature(0, (), 6)


def random_signature(rng):
    """A random valid signature; retries until the area is positive."""
    while True:
        genus = rng.randint(0, 4)
        orders = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4)))
        cusps = rng.randint(0, 5)
        try:
            return FuchsianSignature(genus, orders, cusps)
        except NonHyperbolic:
            continue


# -- signatures ---------------------------------------------------------------


def test_signature_text_round_trip():
    for text in ["0;2,3;1", "0;-;3", "2;-;0", "1;2,2,2;4"]:
        assert str(parse_signature(text)) == text


def test_signature_validation():
    with pytest.raises(NonHyperbolic):
        FuchsianSignature(1, (), 0)  # torus: area 0
    with pytest.raises(NonHyperbolic):
        FuchsianSignature(0, (2, 2), 1)  # area 2*pi*(-2 + 1/2 + 1/2 + 1) = 0
    with pytest.raises(InvalidSignature):
        FuchsianSignature(0, (1, 3), 1)
    with pytest.raises(InvalidSignature):
        FuchsianSignature(-1, (), 5)
    with pytest.raises(InvalidSignature):
        parse_signature("0;2;3;1")


# -- covolume ------------------------------------------------------------------


def test_covolume_modular_group():
    assert covolume(MODULAR) == PiRational(Fraction(1, 3), 1)


def test_covolume_free_lattices():
    assert covolume(FREE2) == PiRational(2, 1)
    assert covolume(FREE3) == PiRational(4, 1)
    assert covolume(FREE5) == PiRational(8, 1)


def test_covolume_hecke_closed_form():
    # (0; 2, q; 1) has covolume 2*pi*(1/2 - 1/q) = pi*(1 - 2/q)
    for q in range(3, 11):
        sig = FuchsianSignature(0, (2, q), 1)
        assert covolume(sig) == PiRational(1 - Fraction(2, q), 1)


# -- cusp-form dimensions --------------------------------------------------------


def test_cusp_dim_weight_twelve_modular():
    # terms: (12-1)(0-1) = -11, floor(6*1/2) = 3, floor(6*2/3) = 4, (6-1)*1 = 5
    assert cusp_form_dim(MODULAR, 12) == 1


def test_cusp_dim_low_weights_modular():
    for k in (4, 6, 8, 10):
        assert cusp_form_dim(MODULAR, k) == 0


def test_cusp_dim_weight_six_free2():
    # terms: (6-1)(0-1) = -5, (3-1)*3 = 6
    assert cusp_form_dim(FREE2, 6) == 1


def test_cusp_dim_small_cases():
    assert cusp_form_dim(FREE2, 2) == 0  # equals the genus
    assert cusp_form_dim(FREE2, 0) == 0  # weight 0 with cusps
    assert cusp_form_dim(FREE2, -4) == 0
    assert cusp_form_dim(FuchsianSignature(2, (), 0), 0) == 1  # weight 0, no cusps
    assert cusp_form_dim(FuchsianSignature(2, (), 0), 2) == 2  # genus


def test_cusp_dim_odd_weight_rejected():
    with pytest.raises(OddWeight):
        cusp_form_dim(MODULAR, 11)


def test_cusp_dim_nondecreasing_from_weight_four():
    for cusps in (1, 2, 3, 6):
        sig = FuchsianSignature(0, (), max(cusps, 3))
        dims = [cusp_form_dim(sig, k) for k in range(4, 40, 2)]
        assert all(a <= b for a, b in zip(dims, dims[1:]))
    cocompact = FuchsianSignature(3, (), 0)
    dims = [cusp_form_dim(cocompact, k) for k in range(4, 40, 2)]
    assert all(a <= b for a, b in zip(dims, dims[1:]))


# -- multiplicities ---------------------------------------------------------------


def test_multiplicity_matches_weight_shift():
    assert discrete_series_multiplicity(FREE2, 5) == 1
    assert discrete_series_multiplicity(MODULAR, 11) == 1
    assert discrete_series_multiplicity(FREE2, 1) == 0
    rng = random.Random(99)
    for _ in range(50):
        sig = random_signature(rng)
        m = rng.randrange(1, 40, 2)
        assert discrete_series_multiplicity(sig, m) == cusp_form_dim(sig, m + 1)


def test_multiplicity_parity_rules():
    with pytest.raises(ParityViolation):
        discrete_series_multiplicity(FREE2, 4)
    # without -I every parameter is admissible, but an even one needs an
    # odd-weight dimension the formula cannot give
    with pytest.raises(OddWeight):
        discrete_series_multiplicity(FREE2, 4, GroupMode.SL2R)
    assert discrete_series_multiplicity(FREE2, 5, GroupMode.SL2R) == 1


# -- formal dimension --------------------------------------------------------------


def test_formal_dimension_values():
    assert formal_dimension_psl(1) == PiRational(Fraction(1, 4), -1)
    assert formal_dimension_psl(5) == PiRational(Fraction(5, 4), -1)


def test_formal_dimension_parity_and_range():
    with pytest.raises(ParityViolation):
        formal_dimension_psl(2)
    with pytest.raises(NonPositiveWeight):
        formal_dimension_psl(-3)
    with pytest.raises(NonPositiveWeight):
        formal_dimension_psl(0, GroupMode.SL2R)
    assert formal_dimension_psl(2, GroupMode.SL2R) == PiRational(Fraction(1, 2), -1)


# -- von Neumann dimension -----------------------------------------------------------


def test_vn_dimension_free_lattices():
    assert vn_dimension(FREE2, 5) == Fraction(5, 2)
    assert vn_dimension(FREE3, 3) == 3
    assert vn_dimension(FREE5, 3) == 6


def test_vn_dimension_cocompact_integer():
    # genus-2 surface group: (m/2)(2g-2) = m(g-1)
    assert vn_dimension(FuchsianSignature(2, (), 0), 3) == 3


def test_vn_dimension_is_product_of_factors():
    rng = random.Random(31337)
    for _ in range(50):
        sig = random_signature(rng)
        m = rng.randrange(1, 100, 2)
        expected = formal_dimension_psl(m) * covolume(sig)
        assert expected.pi_exp == 0
        assert vn_dimension(sig, m) == expected.as_rational()
        # by the closed form too
        assert vn_dimension(sig, m) == Fraction(m, 2) * sig.area_factor()


def test_vn_dimension_haar_rescaling_invariance():
    # scaling the measure scales the formal dimension down and the covolume up;
    # the product must not move
    rng = random.Random(424242)
    for _ in range(50):
        sig = random_signature(rng)
        m = rng.randrange(1, 100, 2)
        c = PiRational(Fraction(rng.randint(1, 100), rng.randint(1, 100)))
        rescaled = (formal_dimension_psl(m) * c) * (covolume(sig) / c)
        assert rescaled.as_rational() == vn_dimension(sig, m)


# -- minimal weight -------------------------------------------------------------------


def test_minimal_weight_free2():
    # dim S_2 = 0, dim S_4 = 0, dim S_6 = 1
    assert cusp_form_dim(FREE2, 2) == 0
    assert cusp_form_dim(FREE2, 4) == 0
    assert cusp_form_dim(FREE2, 6) == 1
    assert minimal_discrete_series_weight(FREE2) == 5


def test_minimal_weight_modular():
    # S_4 ... S_10 all vanish, S_12 is one-dimensional
    assert [cusp_form_dim(MODULAR, k) for k in (2, 4, 6, 8, 10, 12)] == [0, 0, 0, 0, 0, 1]
    assert minimal_discrete_series_weight(MODULAR) == 11


def test_minimal_weight_genus_two():
    # dim S_2 equals the genus, already positive
    assert minimal_discrete_series_weight(FuchsianSignature(2, (), 0)) == 1


def test_minimal_weight_consistency_random():
    rng = random.Random(2718)
    for _ in range(25):
        sig = random_signature(rng)
        m = minimal_discrete_series_weight(sig)
        assert discrete_series_multiplicity(sig, m) >= 1
        for earlier in range(1, m, 2):
            assert discrete_series_multiplicity(sig, earlier) == 0


def _scan_bound_holds(sig):
    """Check the bound on the minimal-weight scan for one signature; return the weight.

    The scan relies on dim S_{m+1} >= ((m-1)/2)A + g - 1 (A the area factor),
    hence on a hit by m = 87 for genus 0 and by m = 3 otherwise.  Here the
    weight is found by an unbounded scan of cusp_form_dim.
    """
    area, genus = sig.area_factor(), sig.genus
    m = 1
    while True:
        dim = cusp_form_dim(sig, m + 1)
        assert dim >= Fraction(m - 1, 2) * area + genus - 1, (sig, m)
        if dim:
            break
        m += 2
    assert m <= (87 if genus == 0 else 3), sig
    assert minimal_discrete_series_weight(sig) == m
    return m


def test_minimal_weight_scan_bound():
    worst = {}
    for a in range(2, 40):
        for b in range(a, 40):
            for c in range(b, 40):
                if b * c + a * c + a * b < a * b * c:  # 1/a + 1/b + 1/c < 1
                    sig = FuchsianSignature(0, (a, b, c), 0)
                    worst.setdefault(_scan_bound_holds(sig), str(sig))
    assert max(worst) == 11 and worst[11] == "0;2,3,7;0"
    assert minimal_discrete_series_weight(parse_signature("0;2,3,7;0")) == 11
    rng = random.Random(1811)
    for _ in range(300):
        assert _scan_bound_holds(random_signature(rng)) <= 11


# -- two lattices ------------------------------------------------------------------------


def test_two_lattice_values():
    assert two_lattice_vn_dimension(MODULAR, FREE2, 11) == Fraction(11, 2)
    assert two_lattice_vn_dimension(FREE2, FREE2, 5) == Fraction(5, 2)


def test_two_lattice_no_occurrence_payload():
    with pytest.raises(NoOccurrence) as info:
        two_lattice_vn_dimension(FREE2, FREE5, 3)
    assert info.value.minimal_weight == 5


def test_two_lattice_value_independent_of_first_lattice():
    m = 11
    hosts = [catalog(name) for name in
             ["H3", "H4", "H5", "H6", "H7", "H8"] + [n for n, _ in FREE_CONGRUENCE_CHAIN]]
    values = set()
    for sig1 in hosts:
        if discrete_series_multiplicity(sig1, m) >= 1:
            values.add(two_lattice_vn_dimension(sig1, FREE2, m))
    assert values == {vn_dimension(FREE2, m)}


def test_two_lattice_errors_exactly_when_dimension_vanishes():
    hosts = [catalog(name) for name in ["H3", "H4", "H5"] + [n for n, _ in FREE_CONGRUENCE_CHAIN]]
    for sig1 in hosts:
        for m in (1, 3, 5, 7, 11):
            if cusp_form_dim(sig1, m + 1) == 0:
                with pytest.raises(NoOccurrence):
                    two_lattice_vn_dimension(sig1, FREE2, m)
            else:
                assert two_lattice_vn_dimension(sig1, FREE2, m) == vn_dimension(FREE2, m)


# -- catalog -------------------------------------------------------------------------------


def test_catalog_entries():
    assert catalog("H3") == MODULAR
    assert catalog("Gamma0(4)") == FREE2
    assert catalog("Gamma0(4)capGamma(2)") == FREE3
    assert catalog("Gamma(4)") == FREE5


def test_catalog_unknown():
    for name in ["H2", "Hx", "Gamma0(5)", ""]:
        with pytest.raises(UnknownGroup):
            catalog(name)


def test_covolume_ratios_match_free_group_indices():
    # along the congruence chain, covolume ratios are subgroup indices
    chain = [(catalog(name), rank) for name, rank in FREE_CONGRUENCE_CHAIN]
    for (sig_a, rank_a), (sig_b, rank_b) in [
        (chain[0], chain[1]),
        (chain[1], chain[2]),
        (chain[0], chain[2]),
    ]:
        ratio = covolume(sig_b).coeff / covolume(sig_a).coeff
        assert ratio == free_group_index(rank_a, rank_b)
    assert [free_group_index(2, 3), free_group_index(3, 5), free_group_index(2, 5)] == [2, 2, 4]
