"""Brute-force-verifiable structure of GL(2, F_q) and characters of F_{q^2}^x.

Two models of the quadratic extension are kept deliberately separate so they
can cross-validate:

* For character arithmetic, F_{q^2}^x is the cyclic group Z/(q^2 - 1) via a
  fixed generator g.  The character with index a sends g to
  exp(2*pi*i * a/(q^2-1)); F_q^x is the unique subgroup of order q - 1,
  generated by g^(q+1), so restricting the index-a character to it gives the
  index-(a mod q-1) character.  Everything about characters is then modular
  arithmetic, which is exact.

* For norm/trace/Hilbert-90 facts and for counting invertible matrices, the
  fields themselves are built explicitly.  F_{p^f} is (Z/p)[x]/(g), where g is
  the least monic irreducible polynomial of degree f when its coefficients
  below x^f are read lexicographically, highest first; g is found by trial
  division, not by a closed form: a candidate is evaluated at each r in Z/p and
  rejected at a root, and any other is divided by the root-free monic
  polynomials of degree 2 to f/2.  F_{q^2} is built the same way, directly as
  degree 2f over Z/p, and F_q inside it is the fixed field of the Frobenius
  x -> x^q.  No discrete logarithm is used, so the norm and trace facts are
  checked, not derived from the cyclic model above.

Standing hypothesis throughout: q is a power of an odd prime.
"""

import math
from collections import Counter, namedtuple
from itertools import product

from .errors import BadCharacterIndex, EvenResidue, NotPrimePower, TooLarge, _quote

#: Field-model guard: a model tabulates every one of its p^f elements, and
#: finding its modulus walks polynomials over Z/p, so a larger field is refused,
#: and so is an enumeration of more q^2 elements of F_{q^2}, pairs or indices.
FIELD_GUARD = 10**4

#: Primality guard: _check_prime, the one check of p that PrimePower(p, f) and the
#: p-adic functions share, and from_int refuse a number of more bits than this
#: that they would test for primality; a prime at the bound takes about 0.4 s to
#: test.  is_prime itself takes any n.
PRIME_BITS_GUARD = 3200

#: The primes up to 41: trial divisors, then the Miller-Rabin bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: The same primes as a set: is_prime and _check_prime settle a p up to 41 by lookup.
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)

#: (bound, k): the least strong pseudoprime to the first k primes as bases, at
#: each k where it grows (OEIS A014233; Jaeschke 1993, Sorenson and Webster
#: 2017).  Below the bound, Miller-Rabin with those k bases is exact.
_MILLER_RABIN_BOUNDS = (
    (2047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)


def _strong_probable_prime(n: int, bases) -> bool:
    """Whether odd n, larger than every base, passes the strong (Miller-Rabin)
    test to each base b: with n - 1 = d 2^s and d odd, b^d = 1 or
    b^(d 2^r) = -1 for some r < s (mod n)."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for base in bases:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n > 41 with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4; with n + 1 = d 2^s, n passes when U_d = 0 or
    V_(d 2^r) = 0 for some r < s (mod n).
    """
    if math.isqrt(n) ** 2 == n:  # no D would have (D/n) = -1
        return False
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:  # gcd(D, n) > 1 and |D| < n
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s

    def half(x):
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q % n  # U_1, V_1 and Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime, in O(log^3 n) bit operations; False for anything but an int.

    A lookup among the primes up to 41 settles every n up to 41, and trial
    division by them every n below 41^2.  Below 3 317 044 064 679 887 385 961 981,
    strong Miller-Rabin tests to the first k of the same 13 primes are proven
    exact, with k from _MILLER_RABIN_BOUNDS: 1 base below 2047, 5 below
    2 152 302 898 747, 7 below 341 550 071 728 321, and all 13 only past
    318 665 857 834 031 151 167 461 (Jaeschke 1993, Sorenson and Webster 2017).
    Above that, the Baillie-PSW test (Pomerance, Selfridge and Wagstaff 1980)
    decides: a strong test to base 2 and a strong Lucas test.  No composite is
    known to pass Baillie-PSW, but none has been proven not to exist.
    """
    if type(n) is not int or n <= 41:
        # 3.0, True and "3" are not prime; a negative n is compared, never hashed
        return type(n) is int and n > 1 and n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return False
    if n < 41 * 41:
        return True
    for bound, k in _MILLER_RABIN_BOUNDS:
        if n < bound:
            return _strong_probable_prime(n, _SMALL_PRIMES[:k])
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _check_prime_bits(n: int, what: str) -> None:
    """TooLarge when n is an int of more bits than PRIME_BITS_GUARD (is_prime refuses a non-int)."""
    if type(n) is int and n.bit_length() > PRIME_BITS_GUARD:
        raise TooLarge(f"{what} of {n.bit_length()} bits exceeds primality guard "
                       f"{PRIME_BITS_GUARD} bits")


def _check_prime(p: int, error, refusal: str = "{} is not prime") -> None:
    """TooLarge past PRIME_BITS_GUARD bits, then error(refusal) unless p is a prime int.

    An int p up to 41 is looked up in is_prime's own table, with no call; the range
    is compared first, so a huge p is never hashed.  Any other p is tested once."""
    if type(p) is int and 1 < p <= 41 and p in _SMALL_PRIME_SET:
        return
    _check_prime_bits(p, "p")
    if not is_prime(p):
        raise error(refusal.format(p))


def _check_int(value, low: int | None, error, what: str) -> None:
    """error unless value is an int (not a bool) >= low; low=None checks only the type."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {_quote(value)}")
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: math.isqrt for k = 2, Newton's method above.

    Newton's method is started from a float estimate raised by 2^-20, far
    more than its rounding error, so that it descends onto the root.
    """
    if k == 2:
        return math.isqrt(n)
    e = math.log2(n) / k
    x = ((int(2 ** (e % 1 + 52) * (1 + 2**-20)) << int(e)) >> 52) + 1
    while x**k <= n:  # only if the estimate fell short after all
        x *= 2
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class _Sealed:
    """First base of each checked value type, so that its _make wins over namedtuple's."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace calls it too
    __reduce__ = lambda self: (type(self), tuple(self))  # copy and pickle call the class


class PrimePower(_Sealed, namedtuple("PrimePower", "p f")):
    """q = p^f with p an odd prime and f >= 1, both ints; immutable, validated at construction."""

    __slots__ = ()

    def __new__(cls, p: int, f: int):  # checks, for a pickle that calls it alone
        _check_prime(p, NotPrimePower)
        if p == 2:
            raise EvenResidue("residue-field order must be odd")
        _check_int(f, 1, NotPrimePower, "exponent")
        return tuple.__new__(cls, (p, f))

    @property
    def q(self) -> int:
        return self.p**self.f

    @classmethod
    def from_int(cls, q: int) -> "PrimePower":
        """q as p^f, testing the primality of p once.

        A prime up to 41 that divides q must be p.  Otherwise every prime
        factor of q is at least 43: take integer k-th roots while they are
        exact, down to r with r^f = q and r no perfect power.  Then q is a
        prime power exactly when r is prime.  Such a q is refused with
        TooLarge past PRIME_BITS_GUARD bits.
        """
        _check_int(q, None, NotPrimePower, "q")
        if q % 2 == 0:
            raise EvenResidue(f"residue-field order must be odd, got {q}")
        if q < 3:
            raise NotPrimePower(f"{q} is not an odd prime power")
        for p in _SMALL_PRIMES:
            if q % p == 0:
                rest, f = q, 0
                while rest % p == 0:
                    rest //= p
                    f += 1
                if rest != 1:
                    raise NotPrimePower(f"{q} is not a prime power")
                return cls(p, f)
        _check_prime_bits(q, "q")  # before the roots, which also grow with it
        p, f, k = q, 1, 2
        while 43**k <= p:
            r = _iroot(p, k)
            if r**k == p:
                p, f = r, f * k
            else:
                k += 1
        try:
            return cls(p, f)
        except NotPrimePower:
            raise NotPrimePower(f"{q} is not a prime power") from None


def as_prime_power(q) -> PrimePower:
    return q if isinstance(q, PrimePower) else PrimePower.from_int(q)


def _enumerable(q) -> PrimePower:
    """q as a PrimePower, refused with TooLarge when q^2 exceeds FIELD_GUARD."""
    pp = as_prime_power(q)
    if pp.q**2 > FIELD_GUARD:
        raise TooLarge(f"q={pp.q}: q^2 exceeds field-model guard {FIELD_GUARD}")
    return pp


# -- explicit field model ----------------------------------------------------


def _divides(h: tuple[int, ...], g: tuple[int, ...], p: int) -> bool:
    """Whether the monic polynomial h divides g over Z/p (coefficients highest first):
    long division, skipping each zero digit of the quotient, leaves a remainder, the
    last len(h) - 1 coefficients, that is 0 mod p."""
    rest, h_tail, top = list(g), h[1:], len(g) - len(h) + 1
    for i in range(top):
        c = rest[i] % p
        if c:
            for j, hj in enumerate(h_tail, i + 1):
                rest[j] -= c * hj
    return all(c % p == 0 for c in rest[top:])


def _root_free(tail: tuple[int, ...], p: int) -> bool:
    """Whether x^d + (tail, highest first) has no root in Z/p: its value at each r, by
    Horner's rule, is the remainder of its division by x - r."""
    for r in range(p):
        value = 1
        for c in tail:
            value = value * r + c
        if value % p == 0:
            return False
    return True


def _least_irreducible(p: int, f: int) -> tuple[int, ...]:
    """The coefficients below x^f, highest first, of the least monic irreducible
    polynomial of degree f over Z/p in their lexicographic order (one exists for every f).

    Trial division in two steps: a candidate with a root in Z/p has a divisor of
    degree 1 and is rejected by evaluation; any other is divided only by the
    root-free monic polynomials of degree 2 to f/2, since a divisor with a root
    would pass that root to the candidate.  For f = 1 the first candidate, x, is
    irreducible.
    """
    if f == 1:
        return (0,)
    divisors = [(1,) + h for d in range(2, f // 2 + 1) for h in product(range(p), repeat=d)
                if _root_free(h, p)]
    for tail in product(range(p), repeat=f):
        if _root_free(tail, p) and not any(_divides(h, (1,) + tail, p) for h in divisors):
            return tail


class _Field:
    """F_{p^f} = (Z/p)[x]/(g), with g = x^f + (modulus, highest first).

    An element is an int from 0 to p^f - 1: its base-p digits, lowest first,
    are its coefficients of 1, x, ..., x^(f-1).  Arithmetic works on a second
    form of each element (Kronecker substitution): the same coefficients in
    lanes of `bits` bits of one int, wide enough that a product of two
    elements, reduced modulo g, never carries from one lane into the next.
    """

    def __init__(self, p: int, f: int):
        self.p, self.f, self.order = p, f, p**f
        if self.order > FIELD_GUARD:
            raise TooLarge(f"field of {p}^{f} elements exceeds field-model guard {FIELD_GUARD}")
        self.modulus = _least_irreducible(p, f)
        self._bits = bits = (f * f * p**3).bit_length()
        self._mask = (1 << bits) - 1  # one lane
        self._shifts = tuple(range((f - 1) * bits, -1, -bits))  # of each lane, highest first
        self._low_bits = f * bits  # the f lanes of an element; a product spills above them
        self._low_mask = (1 << self._low_bits) - 1

        def lanes(coeffs):
            return sum(c << i * bits for i, c in enumerate(coeffs))

        # lanes(a) = lanes(a - 1) + 1 when p does not divide a, else lanes(a/p) one lane up
        self._lanes = table = [0]
        for a in range(1, self.order):
            table.append(table[a - 1] + 1 if a % p else table[a // p] << bits)
        # x^k mod g for k = f, ..., 2f - 2, coefficients in 0..p-1, lowest first
        x_f = [-c % p for c in reversed(self.modulus)]
        power, self._reductions = x_f, []
        for _ in range(f - 1):
            self._reductions.append(lanes(power))
            power = [(c + power[-1] * r) % p for c, r in zip([0] + power, x_f)]

    def _element(self, lanes: int) -> int:
        """The element whose coefficients are the lanes' values mod p."""
        p, mask = self.p, self._mask
        value = 0
        for shift in self._shifts:
            value = value * p + (lanes >> shift & mask) % p
        return value

    def add(self, a: int, b: int) -> int:
        return self._element(self._lanes[a] + self._lanes[b])

    def mul(self, a: int, b: int) -> int:
        bits, mask = self._bits, self._mask
        product = self._lanes[a] * self._lanes[b]
        low = product & self._low_mask
        product >>= self._low_bits
        for reduction in self._reductions:
            low += (product & mask) * reduction
            product >>= bits
        return self._element(low)

    def pow(self, a: int, n: int) -> int:
        result = 1
        while n:
            if n & 1:
                result = self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return result


def field_model(q) -> _Field:
    """Explicit model of F_q = (Z/p)[x]/(g), tabulating all q elements (see _Field);
    TooLarge past FIELD_GUARD elements."""
    pp = as_prime_power(q)
    return _Field(pp.p, pp.f)


# -- group orders ------------------------------------------------------------


GroupOrders = namedtuple("GroupOrders", "gl2_order borel_order borel_index")


def group_orders(q) -> GroupOrders:
    """|GL(2,F_q)| = (q^2-1)(q^2-q), |Borel| = q(q-1)^2, index q+1."""
    n = as_prime_power(q).q
    return GroupOrders(
        gl2_order=(n**2 - 1) * (n**2 - n),
        borel_order=n * (n - 1) ** 2,
        borel_index=n + 1,
    )


EnumeratedOrders = namedtuple("EnumeratedOrders", "counted_order counted_borel")


def enumerate_gl2(q) -> EnumeratedOrders:
    """Count invertible 2x2 matrices (and upper-triangular ones) by enumeration.

    Independent oracle for group_orders: no formula, just the q^2 products ad
    in the explicit field model.  With N(v) = #{(a, d) : ad = v}, the matrix
    [[a, b], [c, d]] is singular exactly when ad = bc, so sum_v N(v)^2 of the
    q^4 matrices are singular; an upper-triangular one is invertible exactly
    when ad != 0, whatever b is.
    """
    field = field_model(_enumerable(q))
    elems = range(field.order)
    products = Counter(field.mul(a, d) for a in elems for d in elems)
    pairs = field.order**2
    return EnumeratedOrders(
        counted_order=pairs**2 - sum(count * count for count in products.values()),
        counted_borel=field.order * (pairs - products[0]),
    )


# -- characters of F_{q^2}^x --------------------------------------------------


def is_regular(q, a: int) -> bool:
    """Whether the index-a character of F_{q^2}^x is regular: theta^q != theta."""
    n = as_prime_power(q).q
    _check_int(a, None, BadCharacterIndex, "character index a")
    return _is_regular(n, a)


def _is_regular(n: int, a: int) -> bool:
    return (n * a) % (n * n - 1) != a % (n * n - 1)


def _restricts_to(n: int, a: int, nu: int) -> bool:
    """Whether the index-a character of F_{n^2}^x restricts to the index-nu one of F_n^x."""
    return a % (n - 1) == nu % (n - 1)


def count_regular_characters(q, nu: int) -> int:
    """Closed form for the number of regular characters restricting to nu.

    q - 1 of them when nu^((q-1)/2) is trivial, q + 1 otherwise.  With nu the
    index-b character of the cyclic group of order q - 1, that power is
    trivial exactly when b is even.
    """
    n = as_prime_power(q).q
    _check_int(nu, None, BadCharacterIndex, "character index nu")
    b = nu % (n - 1)
    return n - 1 if (b * (n - 1) // 2) % (n - 1) == 0 else n + 1


def brute_force_regular_characters(q, nu: int) -> int:
    """Oracle for count_regular_characters: enumerate all q^2 - 1 indices."""
    n = _enumerable(q).q
    _check_int(nu, None, BadCharacterIndex, "character index nu")  # once, not per index
    return sum(1 for a in range(n * n - 1) if _is_regular(n, a) and _restricts_to(n, a, nu))


# -- norm, trace, Hilbert 90 --------------------------------------------------


def _frobenius(q) -> tuple:
    """(F_{q^2}, q, conj), conj[a] = a^q for each a in F_{q^2}, from one power: Frobenius
    is additive and fixes Z/p, so conj(a) = conj(a - 1) + 1 when p does not divide the
    int a, and otherwise a = x * (a/p), so conj(a) = conj(x) * conj(a/p)."""
    pp = _enumerable(q)
    big, p = _Field(pp.p, 2 * pp.f), pp.p
    conj_x = big.pow(p, pp.q)  # the element x is the int p
    conj = [0]
    for a in range(1, big.order):
        conj.append(big.add(conj[a - 1], 1) if a % p else big.mul(conj_x, conj[a // p]))
    return big, pp.q, conj


NormTraceFacts = namedtuple("NormTraceFacts", "norm_surjective trace_surjective norm_kernel_size")


def norm_trace_facts(q) -> NormTraceFacts:
    """Verify by enumeration over an explicit F_{q^2} that the norm x -> x^(q+1)
    surjects onto F_q^x, the trace x -> x + x^q surjects onto F_q, and the norm
    kernel has exactly q + 1 elements.  F_q is the fixed field of x -> x^q."""
    big, n, conj = _frobenius(q)
    norm_image, trace_image, kernel = set(), set(), 0
    for x in range(big.order):
        tr = big.add(x, conj[x])
        assert conj[tr] == tr, "trace is not fixed by Frobenius"
        trace_image.add(tr)
        if x:
            nx = big.mul(x, conj[x])
            assert conj[nx] == nx, "norm is not fixed by Frobenius"
            norm_image.add(nx)
            if nx == 1:
                kernel += 1
    return NormTraceFacts(norm_surjective=len(norm_image) == n - 1,
                          trace_surjective=len(trace_image) == n, norm_kernel_size=kernel)


def hilbert90_count(q) -> int:
    """Count the distinct x * conj(x)^-1 over x in F_{q^2}^x (all norm-1 elements).

    Each is computed as x^2 * N(x)^-1: the norm N(x) = x * conj(x) lies in F_q^x, the
    nonzero elements that conj fixes, and each of their inverses is found by search."""
    return len(_hilbert90_quotients(q))


def _hilbert90_quotients(q) -> set:
    big, _, conj = _frobenius(q)
    subfield = [u for u in range(1, big.order) if conj[u] == u]
    inverse = {u: next(v for v in subfield if big.mul(u, v) == 1) for u in subfield}
    return {big.mul(big.mul(x, x), inverse[big.mul(x, conj[x])]) for x in range(1, big.order)}


# -- representation dimensions ------------------------------------------------


FiniteRepDims = namedtuple("FiniteRepDims", "principal_series_dim cuspidal_dim steinberg_dim")


def finite_rep_dims(q) -> FiniteRepDims:
    """Dimensions over GL(2,F_q): induced-from-Borel q+1, cuspidal q-1, and the
    Steinberg constituent q (the induced trivial splits off a trivial summand)."""
    n = as_prime_power(q).q
    return FiniteRepDims(
        principal_series_dim=n + 1,
        cuspidal_dim=n - 1,
        steinberg_dim=n,
    )
