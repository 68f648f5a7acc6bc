import enum
import math
import random
import time
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

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
from oracles import coset_signature, graded_ring_dim, sieve_primes

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


def test_area_factor_is_the_term_by_term_sum():
    rng = random.Random(2018)
    for count in list(range(8)) * 20 + [64, 200, 1000]:
        genus, cusps = rng.randint(0, 3), rng.randint(0, 4)
        orders = tuple(rng.choice((2, 3, 4, 6, rng.randint(2, 10**6))) for _ in range(count))
        term_by_term = Fraction(2 * genus - 2 + cusps)
        for m in orders:
            term_by_term += 1 - Fraction(1, m)
        try:
            area = FuchsianSignature(genus, orders, cusps).area_factor()
        except NonHyperbolic:
            assert term_by_term <= 0, (genus, orders, cusps)
        else:
            assert area == term_by_term, (genus, orders, cusps)


def test_sign_check_matches_the_exact_sum_on_small_signatures():
    # The constructor sums 1/m only when 2g - 2 + h + l/2 <= 0; every small signature
    # near that boundary, (0;2,3,7;0) of area 1/42 among them, is decided as the sum says.
    seen = {True: 0, False: 0}
    for genus, cusps, count in product(range(3), range(4), range(5)):
        for orders in combinations_with_replacement((2, 3, 4, 5, 6, 7, 8, 12, 42), count):
            area = 2 * genus - 2 + cusps + sum(1 - Fraction(1, m) for m in orders)
            try:
                FuchsianSignature(genus, orders, cusps)
            except NonHyperbolic as exc:
                assert area <= 0, (genus, orders, cusps)
                sig = f"{genus};{','.join(map(str, orders)) or '-'};{cusps}"
                assert str(exc) == f"signature {sig} has Gauss-Bonnet area 2*pi*{area} <= 0"
            else:
                assert area > 0, (genus, orders, cusps)
            seen[area > 0] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_area_factor_is_fast_at_the_argument_size_limit():
    # The first 18 000 odd primes: a --sig of about 115 KB, under the 128 KB that
    # Linux allows one argument.  Added one by one, the reciprocals took about a
    # second on a 2-core Xeon; summed by balanced halves, about a quarter of one.
    orders = sieve_primes(210_000)[1:18_001]
    assert len(orders) == 18_000
    assert len(f"0;{','.join(map(str, orders))};0") < 128 * 1024
    start = time.perf_counter()
    FuchsianSignature(0, orders, 0)  # the constructor checks the area's sign
    assert time.perf_counter() - start < 0.5


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
    order = enum.IntEnum("Order", "ONE TWO").TWO
    with pytest.raises(InvalidSignature):  # an int subclass would be stored as it is
        FuchsianSignature(0, (order, 3), 1)


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


#: Signatures whose even-weight modular forms are a polynomial ring, with the weights
#: of its generators: SL(2,Z) (E4 and E6; Serre, A Course in Arithmetic, VII 3.2),
#: Gamma0(2) (weights 2 and 4) and Gamma0(4) (two of weight 2; Koblitz, IV 4).
GRADED_RINGS = [("0;2,3;1", (4, 6)), ("0;2;2", (2, 4)), ("0;-;3", (2, 2))]


@pytest.mark.parametrize("text, weights", GRADED_RINGS, ids=[t for t, _ in GRADED_RINGS])
def test_cusp_dim_is_the_graded_ring_count_less_the_cusps(text, weights):
    # For k >= 4 the Eisenstein series span one dimension per cusp: dim S_k = dim M_k - h.
    sig = parse_signature(text)
    for k in range(4, 201, 2):
        assert cusp_form_dim(sig, k) == graded_ring_dim(weights, k) - sig.cusps, k


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


# -- the chain against coset permutations ------------------------------------------

#: Each chain group's image in PSL(2, Z/4), as a test on (a, b, c, d) up to sign.
CHAIN_IMAGES = {
    "Gamma0(4)": lambda x: x[2] == 0,
    "Gamma0(4)capGamma(2)": lambda x: x[2] == 0 and x[1] % 2 == 0,
    "Gamma(4)": lambda x: x == (1, 0, 0, 1),
}


def test_coset_oracle_on_textbook_groups():
    # (mu, e2, e3, h, g): PSL(2,Z), Gamma0(2), Gamma0(3), Gamma0(11), Gamma(6)
    assert coset_signature(2, lambda x: True) == (1, 1, 1, 1, 0)
    assert coset_signature(2, lambda x: x[2] == 0) == (3, 1, 0, 2, 0)
    assert coset_signature(3, lambda x: x[2] == 0) == (4, 0, 1, 2, 0)
    assert coset_signature(11, lambda x: x[2] == 0) == (12, 0, 0, 2, 1)
    assert coset_signature(6, lambda x: x == (1, 0, 0, 1)) == (72, 0, 0, 12, 1)


def test_congruence_chain_against_coset_permutations():
    assert [name for name, _ in FREE_CONGRUENCE_CHAIN] == list(CHAIN_IMAGES)
    index = {}
    for name, rank in FREE_CONGRUENCE_CHAIN:
        mu, e2, e3, h, g = coset_signature(4, CHAIN_IMAGES[name])
        assert (e2, e3) == (0, 0) and g.denominator == 1, name  # torsion-free, genus whole
        assert catalog(name) == FuchsianSignature(int(g), (), h)
        assert rank == 2 * g + h - 1
        assert covolume(catalog(name)) == PiRational(Fraction(mu, 3), 1)
        index[name] = mu
    for (name, rank), (sub_name, sub_rank) in combinations(FREE_CONGRUENCE_CHAIN, 2):
        e = Fraction(index[sub_name], index[name])
        assert free_group_index(rank, sub_rank) == e
        for m in (1, 3, 5, 7, 11):
            assert vn_dimension(catalog(sub_name), m) == e * vn_dimension(catalog(name), m)


def gamma0_signature(n: int) -> tuple:
    """(mu, e2, e3, h, g) of Gamma0(n) by the classical formulas (Diamond-Shurman,
    A First Course in Modular Forms, Ch. 3): mu = n prod (1 + 1/p) over the primes
    p | n; e2 = prod (1 + (-1/p)) unless 4 | n, e3 = prod (1 + (-3/p)) unless 9 | n,
    else 0; h = sum phi(gcd(d, n/d)) over the divisors d of n; g from the genus
    formula g = 1 + mu/12 - e2/4 - e3/3 - h/2."""

    def phi(m):
        return sum(math.gcd(k, m) == 1 for k in range(1, m + 1))

    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % k for k in range(2, p))]
    minus_one = {p: 0 if p == 2 else 1 if p % 4 == 1 else -1 for p in primes}  # (-1/p)
    minus_three = {p: 0 if p == 3 else 1 if p % 3 == 1 else -1 for p in primes}  # (-3/p)
    mu = n * math.prod(Fraction(p + 1, p) for p in primes)
    e2 = 0 if n % 4 == 0 else math.prod(1 + minus_one[p] for p in primes)
    e3 = 0 if n % 9 == 0 else math.prod(1 + minus_three[p] for p in primes)
    h = sum(phi(math.gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)
    return mu, e2, e3, h, 1 + mu / 12 - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(h, 2)


#: n -> {weight k: dim S_k(Gamma0(n))}, as tabulated by the LMFDB: the elliptic curve
#: X0(11) gives S_2(Gamma0(11)) its one form, and S_12(Gamma0(11)) holds 8 newforms
#: and the two oldforms of Delta.
GAMMA0_CUSP_FORM_DIMS = {11: {2: 1, 12: 10}, 5: {4: 1}, 3: {6: 1}}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9, 11, 13, 25])
def test_gamma0_with_elliptic_points_through_the_coset_oracle(n):
    # Gamma0(n) has index mu in PSL(2,Z), so its covolume and each von Neumann dimension
    # are mu times those of PSL(2,Z): the (1 - 1/m) terms of the covolume meet an index.
    mu, e2, e3, h, g = coset_signature(n, lambda x: x[2] == 0)
    assert (mu, e2, e3, h, g) == gamma0_signature(n)
    sig = FuchsianSignature(int(g), (2,) * e2 + (3,) * e3, h)
    for m in (3, 5, 11):
        assert vn_dimension(sig, m) == mu * vn_dimension(MODULAR, m), m
    assert covolume(sig) == mu * covolume(MODULAR)
    for weight, dim in GAMMA0_CUSP_FORM_DIMS.get(n, {}).items():
        assert cusp_form_dim(sig, weight) == dim, weight


def test_principal_congruence_multiplicities_approach_the_von_neumann_dimension():
    # A second route to vn_dimension: ordinary multiplicities along a tower of
    # finite-index subgroups, normalised by the index, tend to it (DeGeorge-Wallach,
    # Ann. of Math. 107 (1978)).  Over Gamma(N), N >= 3, from the coset oracle, the
    # multiplicity dim S_{m+1} falls short of vn_dimension by exactly h/2, and
    # h/mu = 1/N, so dim S_{m+1}/mu rises to vn_dimension(PSL(2,Z), m) = m/12.
    previous = dict.fromkeys((3, 5, 11), Fraction(-1))
    for n in range(3, 13):
        mu, e2, e3, h, g = coset_signature(n, lambda x: x == (1, 0, 0, 1))
        assert (e2, e3) == (0, 0) and g.denominator == 1 and h * n == mu, n
        sig = FuchsianSignature(int(g), (), h)
        for m, below in previous.items():
            vn = vn_dimension(sig, m)
            assert cusp_form_dim(sig, m + 1) == vn - Fraction(h, 2), (n, m)
            assert vn == mu * vn_dimension(MODULAR, m), (n, m)
            ratio = Fraction(cusp_form_dim(sig, m + 1), mu)
            assert below < ratio < Fraction(m, 12), (n, m)
            previous[m] = ratio
