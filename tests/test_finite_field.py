import functools
import math
import time
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest

from vndim import finite_field
from vndim.cli import main
from vndim.errors import DomainError, EvenResidue, NotPrime, NotPrimePower, TooLarge
from vndim.finite_field import (
    PRIME_BITS_GUARD,
    NormTraceFacts,
    PrimePower,
    as_prime_power,
    brute_force_regular_characters,
    count_regular_characters,
    enumerate_gl2,
    FIELD_GUARD,
    field_model,
    finite_rep_dims,
    group_orders,
    hilbert90_count,
    is_prime,
    is_regular,
    norm_trace_facts,
)
from vndim.finite_field import (
    _MILLER_RABIN_BOUNDS,
    _SMALL_PRIMES,
    _check_prime,
    _frobenius,
    _hilbert90_quotients,
)
from vndim.padic import HaarNormalization, PadicRep, depth_zero_formal_dim, vn_dimension_padic
from vndim.tables import build_table

from oracles import (
    check_prime_in_full,
    factors_through_norm,
    hilbert90_powers,
    least_irreducible_by_division,
    sieve_primes,
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


def test_deterministic_field_model():
    # over Z/3 the first irreducible monic quadratic is x^2 + 1
    model = field_model(9)
    assert model.modulus == (0, 1)
    assert model.order == 9


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
    assert [a for a in regular if a % 2 == 0] == [2, 6]  # a mod (q - 1) = nu
    assert [a for a in regular if a % 2 == 1] == [1, 3, 5, 7]
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


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13])
def test_the_cuspidal_dimension_from_the_class_equation_of_gl2(q):
    # Fulton-Harris, Representation Theory, Sec. 5.2: the irreducibles of G = GL(2,F_q) are
    # q - 1 characters chi(det), q - 1 twists of the Steinberg representation, (q-1)(q-2)/2
    # principal series and one cuspidal representation per pair {theta, theta^q} of
    # regular characters of F_{q^2}^x.  They are as many as the conjugacy classes, and
    # their squared dimensions add up to |G|, which leaves one cuspidal dimension.
    counted = enumerate_gl2(q)
    principal = counted.counted_order // counted.counted_borel  # [G:B] = dim Ind_B^G 1
    steinberg = principal - 1
    field = field_model(q)
    elems = range(field.order)
    add = [[field.add(x, y) for y in elems] for x in elems]
    mul = [[field.mul(x, y) for y in elems] for x in elems]
    negative = mul[next(x for x in elems if add[x][1] == 0)]  # times -1
    # A scalar matrix is a class alone; the others are cyclic, one class per (trace, det).
    scalars, keys = 0, set()
    for a, b, c, d in product(elems, repeat=4):
        det = add[mul[a][d]][negative[mul[b][c]]]
        if det and b == c == 0 and a == d:
            scalars += 1
        elif det:
            keys.add((add[a][d], det))
    regular = sum(1 for a in range(q * q - 1) if a * q % (q * q - 1) != a)
    assert regular % 2 == 0
    families, series = regular // 2, (q - 1) * (q - 2) // 2
    assert 2 * (q - 1) + series + families == scalars + len(keys)
    square = Fraction(counted.counted_order - (q - 1) * (1 + steinberg**2)
                      - series * principal**2, families)
    root = math.isqrt(int(square))
    assert square > 0 and square == root * root  # the one positive solution
    assert root == finite_rep_dims(q).cuspidal_dim
    assert root == depth_zero_formal_dim(q, HaarNormalization.K_ONE)


#: Odd prime powers past 9, up to 97, the largest with q^2 <= FIELD_GUARD.
LARGE_ORACLE_QS = (25, 27, 49, 81, 97)

OracleAnswers = namedtuple("OracleAnswers", "counted norm_trace hilbert90 brute_regular")


@functools.cache
def oracles_at(q):
    """Every enumeration's answer at q, computed once for the whole module: at
    q = 81 and 97 a scan of F_{q^2} takes some tenths of a second.  The
    brute-force count is taken at nu = 0 and 1, one index of each parity."""
    return OracleAnswers(enumerate_gl2(q), norm_trace_facts(q), hilbert90_count(q),
                         tuple(brute_force_regular_characters(q, nu) for nu in (0, 1)))


def test_every_enumeration_refuses_past_the_guard(capsys):
    assert max(LARGE_ORACLE_QS) ** 2 <= FIELD_GUARD < 101**2
    oracles_at(97)  # the largest q allowed answers in all four; the values are checked below
    enumerations = [enumerate_gl2, norm_trace_facts, hilbert90_count,
                    lambda q: brute_force_regular_characters(q, 1)]
    for q in (101, PrimePower(101, 1), 125):
        messages = set()
        for enumerate_ in enumerations:
            start = time.perf_counter()
            with pytest.raises(TooLarge) as refused:
                enumerate_(q)
            assert time.perf_counter() - start < 0.1
            messages.add(str(refused.value))
        n = as_prime_power(q).q
        assert messages == {f"q={n}: q^2 exceeds field-model guard {FIELD_GUARD}"}
    for enumerate_ in enumerations:
        with pytest.raises(NotPrimePower):  # q is validated before the guard
            enumerate_(15)
    for verb in (["enumerate"], ["normtrace"], ["bruteregular", "--nu", "1"]):
        assert main(["ff", verb[0], "--q", "101", *verb[1:]]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: TooLarge: q=101: q^2 exceeds field-model guard "
                                  f"{FIELD_GUARD}\n")


# -- reference oracles --------------------------------------------------------------

ORACLE_LIMIT = 10**5


def test_is_prime_matches_a_sieve():
    primes = set(sieve_primes(ORACLE_LIMIT))
    assert len(primes) == 9592
    for n in range(-3, ORACLE_LIMIT):
        assert is_prime(n) == (n in primes), n


def test_is_prime_answers_false_for_anything_but_an_int():
    assert [is_prime(n) for n in (3.0, True, "3", Fraction(3))] == [False] * 4
    assert is_prime(3) and not is_prime(9)


def parse_outcome(n):
    """PrimePower.from_int(n), or the DomainError it raises."""
    try:
        return PrimePower.from_int(n)
    except DomainError as exc:
        return exc


def test_prime_power_parsing_matches_a_sieve():
    odd_prime_powers = {}
    for p in sieve_primes(ORACLE_LIMIT)[1:]:
        f = 1
        while p**f < ORACLE_LIMIT:
            odd_prime_powers[p**f] = PrimePower(p, f)
            f += 1
    for n in range(ORACLE_LIMIT):
        outcome = parse_outcome(n)
        if n % 2 == 0:  # 0, 2 and every even n: even before anything else
            assert isinstance(outcome, EvenResidue), n
        elif n in odd_prime_powers:
            assert outcome == odd_prime_powers[n], n
        else:  # 1 and the odd composites with two distinct prime factors
            assert isinstance(outcome, NotPrimePower), n


MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)

#: Composites that fool weaker tests: Carmichael numbers, then the least strong
#: pseudoprimes to the first 1, 2, 3, 4, 5, 6, 8, 11 and 12 primes as bases
#: (OEIS A014233), and last the least one to every prime base up to 41, which
#: only the Lucas half of Baillie-PSW rejects.
HARD_COMPOSITES = (
    561, 41041, 825265,
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_strong_probable_prime(n, b):
    """With n - 1 = d 2^s and d odd: b^d = 1 or b^(d 2^r) = -1 for some r < s (mod n)."""
    s = 0
    while (n - 1) % 2 ** (s + 1) == 0:
        s += 1
    d = (n - 1) // 2**s
    x = pow(b, d, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def leading_bases(n):
    """How many of the first primes, in order, n is a strong probable prime to."""
    return next((k for k, b in enumerate(SMALL_PRIMES) if not is_strong_probable_prime(n, b)),
                len(SMALL_PRIMES))


def test_is_prime_hard_cases():
    for n in MERSENNE_PRIMES:
        assert is_prime(n), n
    for n in HARD_COMPOSITES:
        assert not is_prime(n), n
    # each pseudoprime really is one, to the first primes of its row and not the next
    pseudoprime_bases = {
        2047: (2,),
        1373653: (2, 3),
        25326001: (2, 3, 5),
        3215031751: (2, 3, 5, 7),
        2152302898747: (2, 3, 5, 7, 11),
        3474749660383: (2, 3, 5, 7, 11, 13),
        341550071728321: (2, 3, 5, 7, 11, 13, 17, 19),
        3825123056546413051: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31),
        318665857834031151167461: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37),
        3317044064679887385961981: (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41),
    }
    for n, bases in pseudoprime_bases.items():
        assert SMALL_PRIMES[:len(bases)] == bases
        assert leading_bases(n) == len(bases), n


#: A factorization of each Miller-Rabin bound.
BOUND_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
    3317044064679887385961981: (1287836182261, 2575672364521),
}


def test_miller_rabin_bounds_are_the_least_pseudoprimes_to_their_bases():
    # Below the bound of row (bound, k), k bases decide; the bound itself is
    # composite and fools exactly the bases up to the next row's k.
    assert _SMALL_PRIMES == SMALL_PRIMES
    assert [bound for bound, _ in _MILLER_RABIN_BOUNDS] == sorted(BOUND_FACTORS)
    ks = [k for _, k in _MILLER_RABIN_BOUNDS]
    assert ks == sorted(ks) and ks[-1] == len(SMALL_PRIMES)
    for (bound, k), next_k in zip(_MILLER_RABIN_BOUNDS, ks[1:] + [len(SMALL_PRIMES) + 1]):
        factors = BOUND_FACTORS[bound]
        assert math.prod(factors) == bound and len(factors) > 1 and min(factors) > 1, bound
        assert bound in HARD_COMPOSITES and not is_prime(bound), bound
        assert leading_bases(bound) == next_k - 1 >= k, bound


def test_each_miller_rabin_row_needs_all_its_bases():
    # In the range of each row lies a composite with no prime factor up to 41
    # that fools all of the row's bases but its last: 43^2 fools no base at
    # all, 53 * 157 fools base 2, and after that the bound of the row before.
    witnesses = [43 * 43, 53 * 157] + [bound for bound, _ in _MILLER_RABIN_BOUNDS[1:-1]]
    low = 41 * 41
    for (bound, k), n in zip(_MILLER_RABIN_BOUNDS, witnesses):
        assert low <= n < bound, n
        assert all(n % p for p in SMALL_PRIMES) and leading_bases(n) >= k - 1, n
        assert not is_prime(n), n
        low = bound


def test_is_prime_matches_all_13_bases_around_each_bound():
    # all 13 bases are exact below the last bound, so they are the reference there
    last = _MILLER_RABIN_BOUNDS[-1][0]
    for bound, _ in _MILLER_RABIN_BOUNDS:
        for n in range(bound - 1999, min(bound + 2000, last), 2):
            expected = all(n % p for p in SMALL_PRIMES) and leading_bases(n) == len(SMALL_PRIMES)
            assert is_prime(n) == expected, n


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


def check_outcome(check, p, error, refusal):
    """None when check(p, error, refusal) passes, else the class and text of its refusal."""
    try:
        check(p, error, refusal)
    except (TooLarge, error) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("error, refusal", [
    (NotPrime, "{} is not prime"),
    (NotPrimePower, "{} is not prime"),
    (NotPrime, "the formal-dimension table needs a prime p, got {}"),
])
def test_check_prime_follows_the_rule_in_full(error, refusal):
    hostile = [3.0, True, False, "3", None, Fraction(3), Decimal("3")]
    at_guard = [2**3199, 2**3200 - 1, 2**3200, -(2**3200), 2**3200 + 1]  # 3200, 3201 bits
    assert PRIME_BITS_GUARD == 3200
    for p in [*range(-2, 2001), *hostile, *at_guard]:
        assert (check_outcome(_check_prime, p, error, refusal)
                == check_outcome(check_prime_in_full, p, error, refusal)), p


def test_a_huge_p_is_refused_by_its_bits_at_once():
    huge = 1 << 10**8
    for p in (huge, -huge):  # hashing either would take about 10 ms
        seconds = []
        for _ in range(5):
            start = time.perf_counter()
            with pytest.raises(TooLarge, match="^p of 100000001 bits exceeds primality guard"):
                _check_prime(p, NotPrime)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 1e-3, seconds
    seconds, p = [], -huge
    for _ in range(5):
        start = time.perf_counter()
        assert not is_prime(p)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 1e-3, seconds


def parse_counting(monkeypatch, q) -> tuple:
    """PrimePower.from_int(q), and the arguments of every is_prime call that it makes."""
    calls = []
    is_prime_ = finite_field.is_prime

    def counting(n):
        calls.append(n)
        return is_prime_(n)

    monkeypatch.setattr(finite_field, "is_prime", counting)
    return PrimePower.from_int(q), calls


@pytest.mark.parametrize("q", [47, 43, 10**6 + 3, 43**4, (10**6 + 3) ** 2, (2**61 - 1) ** 2])
def test_prime_power_parsing_tests_primality_once(monkeypatch, q):
    pp, calls = parse_counting(monkeypatch, q)
    assert pp.q == q
    assert calls == [pp.p]


@pytest.mark.parametrize("q", [3, 3**4, 41, 41**3])
def test_prime_power_parsing_of_a_tabled_prime_tests_nothing(monkeypatch, q):
    pp, calls = parse_counting(monkeypatch, q)
    assert (pp.q, calls) == (q, [])


def scan_gl2(q):
    """The q^4 scan: test the determinant of every matrix over the explicit field model."""
    field = field_model(q)
    total = upper = 0
    for a, b, c, d in product(range(field.order), repeat=4):
        if field.mul(a, d) != field.mul(b, c):
            total += 1
            upper += c == 0
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
    assert field.order == q
    elems = range(q)

    def power(x, n):
        result = 1
        for _ in range(n):
            result = field.mul(result, x)
        return result

    for x in range(1, q):
        assert power(x, q - 1) == 1, x
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.add(a, field.mul(a, field.p - 1)) == 0  # p - 1 is -1


def test_field_elements_are_base_p_digits():
    # F_9 = (Z/3)[x]/(x^2 + 1): the element 3 is x, so x * x = -1 = 2
    field = field_model(9)
    assert field.order == 9
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


@pytest.mark.parametrize("p, f", [(p, f) for p in sieve_primes(101)[1:] for f in range(2, 9)
                                  if p**f <= FIELD_GUARD])  # degree 2 to 8
def test_modulus_is_the_least_polynomial_that_full_trial_division_keeps(p, f):
    assert field_model(p**f).modulus == least_irreducible_by_division(p, f)


def test_oracles_agree_with_closed_forms_past_9():
    for q in LARGE_ORACLE_QS:
        answers, orders = oracles_at(q), group_orders(q)
        assert answers.counted == (orders.gl2_order, orders.borel_order), q
        assert answers.brute_regular == (count_regular_characters(q, 0),
                                         count_regular_characters(q, 1)) == (q - 1, q + 1)
        assert answers.norm_trace == NormTraceFacts(True, True, q + 1), q
        assert answers.hilbert90 == q + 1, q


@pytest.mark.parametrize("q", [3, 9, 27, 81, 97])  # F_{q^2} of degree 2 to 8 over Z/p
def test_frobenius_table_is_the_qth_power(q):
    big, n, conj = _frobenius(q)
    assert n == q and big.order == q * q
    assert conj == [big.pow(x, q) for x in range(big.order)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
def test_hilbert90_quotients_are_the_single_powers(q):
    # every odd prime power q <= 27
    assert _hilbert90_quotients(q) == hilbert90_powers(field_model(q * q), q)


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


@pytest.mark.parametrize("q", [3, 9, 25, 27, 49, 81, 125, 243, 3**6, 7**3])
def test_field_addition_matches_digitwise_addition(q):
    import random

    field = field_model(q)
    p = field.p
    rng = random.Random(q)
    pairs = (product(range(q), repeat=2) if q <= 81
             else [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)])
    for a, b in pairs:
        digits = sum((a // p**i + b // p**i) % p * p**i for i in range(field.f))
        assert field.add(a, b) == digits, (a, b)


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (3, 8), (5, 4), (7, 2), (97, 2)])
def test_lane_table_matches_the_digit_definition(p, f):
    field = field_model(p**f)
    bits = field._bits
    assert len(field._lanes) == p**f
    for a, lanes in enumerate(field._lanes):
        assert lanes == sum((a // p**i % p) << i * bits for i in range(f)), a


def test_field_model_refuses_a_large_field_at_once():
    assert field_model(9973).order == 9973  # the largest prime under the guard
    assert field_model(3**8).order == 6561 <= FIELD_GUARD
    for q in (10007, 1000003, 10**9 + 7, 3**20):
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=f"exceeds field-model guard {FIELD_GUARD}"):
            field_model(q)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("q", [3, 9, 97])
def test_the_brute_force_count_checks_nu_once_per_call(monkeypatch, q):
    checked, check = [], finite_field._check_int
    monkeypatch.setattr(finite_field, "_check_int",
                        lambda *args: checked.append(args[-1]) or check(*args))
    assert brute_force_regular_characters(q, 1) == count_regular_characters(q, 1)
    # nu once by each count, and never in the q^2-step scan
    assert checked.count("character index nu") == 2
