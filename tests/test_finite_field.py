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

ORACLE_LIMIT = 10**5


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
    assert len(primes) == 9592
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


MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)

#: Composites that fool weaker tests: Carmichael numbers, then strong
#: pseudoprimes to the prime bases up to 7, up to 31 and up to 37, and last
#: one to every prime base up to 41, which only the Lucas half of Baillie-PSW
#: rejects.
HARD_COMPOSITES = (
    561, 41041, 825265,
    3215031751,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_is_prime_hard_cases():
    for n in MERSENNE_PRIMES:
        assert is_prime(n), n
    for n in HARD_COMPOSITES:
        assert not is_prime(n), n
    # each pseudoprime really is one: n - 1 = d 2^s, and to every base b of its
    # row b^d = 1 or b^(d 2^r) = -1 for some r < s
    pseudoprime_bases = {
        3215031751: (2, 3, 5, 7),
        3825123056546413051: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
        318665857834031151167461: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37),
        3317044064679887385961981: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41),
    }
    for n, bases in pseudoprime_bases.items():
        s = 0
        while (n - 1) % 2 ** (s + 1) == 0:
            s += 1
        d = (n - 1) // 2**s
        for b in bases:
            assert pow(b, d, n) == 1 or any(pow(b, d * 2**r, n) == n - 1 for r in range(s)), (n, b)


def test_strong_lucas_test_matches_a_sieve():
    # The Lucas half of Baillie-PSW only runs above 3.3e24 inside is_prime, so
    # it is checked here on its own: below 10^5 it passes every prime past 41
    # and exactly the strong Lucas pseudoprimes of OEIS A217255.
    from vndim.finite_field import _strong_lucas_probable_prime

    primes = set(sieve_primes(ORACLE_LIMIT))
    pseudoprimes = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
                    75077, 97439}
    for n in range(43, ORACLE_LIMIT, 2):
        assert _strong_lucas_probable_prime(n) == (n in primes or n in pseudoprimes), n


def test_prime_power_parsing_hard_cases():
    for p, f in ((10**6 + 3, 3), (2**61 - 1, 2), (3, 4), (43, 5), (2**89 - 1, 1)):
        assert PrimePower.from_int(p**f) == PrimePower(p, f)
    for p, r in ((999999937, 1000000007), (1000000007, 1000000009), (999999937, 1000000009)):
        assert is_prime(p) and is_prime(r)
        for q in (p * r, p * p * r):
            with pytest.raises(NotPrimePower, match=rf"^{q} is not a prime power$"):
                PrimePower.from_int(q)
    for n in HARD_COMPOSITES:
        with pytest.raises(NotPrimePower, match=rf"^{n} is not a prime power$"):
            PrimePower.from_int(n)


def test_direct_construction_rejects_a_composite_p():
    for p in (15, 3215031751, 3317044064679887385961981):
        with pytest.raises(NotPrimePower, match=rf"^{p} is not prime$"):
            PrimePower(p, 1)


@pytest.mark.parametrize("q", [3, 43, 10**6 + 3, 3**4, (10**6 + 3) ** 2, (2**61 - 1) ** 2])
def test_prime_power_parsing_tests_primality_once(monkeypatch, q):
    import vndim.finite_field as finite_field

    calls = []
    is_prime_ = finite_field.is_prime

    def counting(n):
        calls.append(n)
        return is_prime_(n)

    monkeypatch.setattr(finite_field, "is_prime", counting)
    pp = PrimePower.from_int(q)
    assert pp.q == q
    assert calls == [pp.p]


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
    lambda: norm_trace_facts(9),
    lambda: hilbert90_count(9),
], ids=["vn_dimension_padic-steinberg", "vn_dimension_padic-cuspidal",
        "cli-countregular-sign", "build_table-padic", "norm_trace_facts", "hilbert90_count"])
def test_q_is_validated_once(monkeypatch, capsys, call):
    calls = []
    from_int = PrimePower.from_int.__func__

    def counting(cls, q):
        calls.append(q)
        return from_int(cls, q)

    monkeypatch.setattr(PrimePower, "from_int", classmethod(counting))
    call()
    assert len(calls) == 1, calls


# -- the explicit field model at every degree ------------------------------------------


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25, 27, 49, 81, 125, 243])
def test_field_model_is_a_field(q):
    import random

    field = field_model(q)
    elems = list(field.elements())
    assert len(set(elems)) == q

    def power(x, n):
        result = field.one
        for _ in range(n):
            result = field.mul(result, x)
        return result

    for x in elems:
        if x != field.zero:
            assert power(x, q - 1) == field.one, x
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(a, field.neg(a)) == field.zero


def test_field_elements_are_base_p_digits():
    # F_9 = (Z/3)[x]/(x^2 + 1): the element 3 is x, so x * x = -1 = 2
    field = field_model(9)
    assert list(field.elements()) == list(range(9))
    assert (field.zero, field.one) == (0, 1)
    assert field.mul(3, 3) == 2
    assert field.add(5, 4) == 6  # (2 + x) + (1 + x) = 2x
    for x in range(1, 9):
        assert field.pow(x, 8) == 1 and field.pow(x, 9) == x


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 125, 343])
def test_modulus_is_the_least_polynomial_without_a_root(q):
    # below degree 4, a monic polynomial is irreducible exactly when it has no root
    pp = PrimePower.from_int(q)
    p = pp.p

    def value(tail, t):
        return sum(c * t**i for i, c in enumerate(reversed((1,) + tail))) % p

    irreducible = [tail for tail in product(range(p), repeat=pp.f)
                   if pp.f == 1 or all(value(tail, t) for t in range(p))]
    assert field_model(q).modulus == irreducible[0]


def test_oracles_agree_with_closed_forms_at_27(monkeypatch):
    import vndim.finite_field as finite_field

    monkeypatch.setattr(finite_field, "ENUMERATION_GUARD", 27)
    q = 27
    counted, orders = enumerate_gl2(q), group_orders(q)
    assert (counted.counted_order, counted.counted_borel) == (orders.gl2_order, orders.borel_order)
    for nu in range(q - 1):
        assert brute_force_regular_characters(q, nu) == count_regular_characters(q, nu)
    assert norm_trace_facts(q) == finite_field.NormTraceFacts(True, True, q + 1)
    assert hilbert90_count(q) == q + 1


def schoolbook_mul(field, a, b):
    """a * b by digit-by-digit polynomial multiplication and long division by g."""
    p, f = field.p, field.f
    da = [a // p**i % p for i in range(f)]
    db = [b // p**i % p for i in range(f)]
    prod = [0] * (2 * f - 1)
    for i in range(f):
        for j in range(f):
            prod[i + j] += da[i] * db[j]
    g = list(reversed(field.modulus))  # lowest first, x^f left implicit
    for k in range(2 * f - 2, f - 1, -1):  # x^k = -x^(k-f) (g - x^f)
        for i in range(f):
            prod[k - f + i] -= prod[k] * g[i]
    return sum(prod[i] % p * p**i for i in range(f))


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 81, 125, 243, 3**6, 7**3])
def test_field_multiplication_matches_schoolbook(q):
    import random

    field = field_model(q)
    rng = random.Random(q)
    pairs = (product(range(q), repeat=2) if q <= 81
             else [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)])
    for a, b in pairs:
        assert field.mul(a, b) == schoolbook_mul(field, a, b), (a, b)
