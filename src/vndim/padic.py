"""The PGL(2,F) side: valuations, Haar bookkeeping, lattices, formal dimensions.

F is a non-archimedean local field of characteristic 0 whose residue field has
odd order q.  Everything computable here reduces to exact rational arithmetic:

* p-adic valuations and absolute values of rationals, p^(-v) memoized (256 kept);
* level arithmetic for characters of quadratic extensions;
* reduced words in the affine Weyl group W0 (infinite dihedral: two involutive
  generators, exactly two elements of each positive length), listed up to
  length WEYL_LENGTH_GUARD, whose length series 2 * sum q^(-l) governs
  square-integrability of the Steinberg representation (its partial sums are
  refused past RESULT_DIGIT_GUARD digits);
* Haar normalizations, encoded by the volume they give the image of the
  maximal compact K modulo center (the Iwahori subgroup always has 1/(q+1) of
  that volume);
* torsion-free cocompact lattices, which are free groups; rank n occurs
  exactly when h = 2(n-1)/(q-1) is a positive integer, and h is the covolume
  under the K=1 normalization;
* formal dimensions of the Steinberg and depth-zero cuspidal representations,
  scaling as 1/measure across normalizations, and the resulting von Neumann
  dimensions n-1 and 2(n-1), independent of normalization;
* the formal-dimension table under the Jacquet-Langlands correspondence,
  stated under the normalization that gives the Steinberg representation
  formal degree 1 (that is, vol(K.Z/Z) = (q-1)/2), up to RESULT_DIGIT_GUARD
  digits.

A p that must be prime goes through finite_field._check_prime, the one check of p
that PrimePower shares.  A prime up to 41 is looked up in is_prime's own table and
not tested; any other p is refused with TooLarge past PRIME_BITS_GUARD bits, then
tested once.
"""

import enum
import functools
import math
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import accumulate

from .errors import (
    BadRamification,
    EvenResidue,
    LevelOutOfRange,
    NegativeLength,
    NoSuchLattice,
    NotPrime,
    OddRamifiedConductor,
    TooLarge,
    _quote,
)
from .exact import _fraction, int_text
from .finite_field import _Sealed, _check_int, _check_prime, as_prime_power

#: Valuation of 0: ordered above every integer, absorbs addition.
INFINITE_VALUATION = math.inf

#: Result-size guard: weyl_partial_sum and the formal-dimension table refuse a
#: result whose power of q or p (q^L, p^(j-1), ...) would have more decimal
#: digits than this, before computing it.  A CLI query at the bound (a Weyl sum
#: at q = 3) takes about 1 s.
RESULT_DIGIT_GUARD = 45_000


def _power_digits(base: int, exponent: int) -> int:
    """About the digits of base^exponent (base > 1, no power of 10), in int arithmetic."""
    num, den = math.log10(base).as_integer_ratio()
    return exponent * num // den + 1


def _check_digits(base: int, exponent: int) -> None:
    """TooLarge when base^exponent has more than RESULT_DIGIT_GUARD digits."""
    digits = _power_digits(base, exponent)
    if digits > RESULT_DIGIT_GUARD:
        raise TooLarge(f"result needs a power of {int_text(digits)} digits, more than the "
                       f"result-digit guard {RESULT_DIGIT_GUARD}")


def padic_valuation(r: Fraction, p: int):
    """Exponent v with r = p^v * (a/b), p dividing neither a nor b; v(0) = +inf."""
    _check_prime(p, NotPrime)
    return _valuation(r, p)


def _valuation(r: Fraction, p: int):
    """padic_valuation with p already known to be prime, in O(log v) divisions."""
    # an int or a Fraction has its terms already; a plain Fraction, the commonest, is
    # recognized by its type alone
    if type(r) is not Fraction and not isinstance(r, (int, Fraction)):
        r = _fraction(r)
    num, den = r.as_integer_ratio()  # % and divmod strip p from a negative num exactly
    if not num:
        return INFINITE_VALUATION
    if num % p:
        if den % p:
            return 0
        num, sign = den, -1  # the terms are coprime: p divides at most one of them
    else:
        sign = 1
    num //= p
    if num % p:  # v = 1 or -1, the commonest after 0
        return sign
    # p^2 divides num: divide it by p, p^2, p^4, ... while the power divides, then walk
    # back down the same powers, each the square root of the one before
    k, power, e = 1, p, 1
    while True:
        quotient, rest = divmod(num, power)
        if rest:
            break
        num, k = quotient, k + e
        power, e = power * power, 2 * e
    while e > 1:  # p^e no longer divides num: the rest of k is below e
        power, e = math.isqrt(power), e // 2
        quotient, rest = divmod(num, power)
        if not rest:
            num, k = quotient, k + e
    return sign * k


def padic_abs(r: Fraction, p: int) -> Fraction:
    """|r|_p = p^(-v(r)) as an exact rational, with |0|_p = 0."""
    _check_prime(p, NotPrime)
    return _abs_from_valuation(_valuation(r, p), p)


def abs_from_valuation(v, p: int) -> Fraction:
    """p^(-v) as an exact rational, and 0 for v = +inf: |r|_p from v = v(r).
    Memoized with padic_abs by (v, p), keeping at most 256 results:
    each one a call returned, from padic_abs no larger than a p-power dividing r.
    NotPrime unless p is prime; ValueError for any other v than an int (not a bool) or
    +inf; TooLarge when p^|v| has more than RESULT_DIGIT_GUARD digits."""
    _check_prime(p, NotPrime)
    if v != INFINITE_VALUATION:
        _check_int(v, None, ValueError, "valuation")
        _check_digits(p, abs(v))
    return _abs_from_valuation(v, p)


@functools.lru_cache(maxsize=256)  # v is an int or +inf, p an int: each key has one type
def _abs_from_valuation(v, p: int) -> Fraction:
    if math.isinf(v):
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def ultrametric_check(r: Fraction, s: Fraction, p: int) -> bool:
    """|r + s|_p <= max(|r|_p, |s|_p); true for every pair, by ultrametricity.

    Since |x|_p = p^(-v(x)) falls as v(x) rises, this compares valuations:
    v(r + s) >= min(v(r), v(s)), with v(0) = +inf.  Ints and Fractions are taken as
    they are; anything else is converted first, as PiRational converts it, so that a
    str is parsed under the digit limit, not concatenated, and a float adds unrounded.
    v(r + s) is that of the sum itself, r = a/b and s = c/d added unreduced as
    (ad + bc)/(bd): no Fraction is built for it.
    """
    _check_prime(p, NotPrime)
    r = r if isinstance(r, (int, Fraction)) else _fraction(r)
    s = s if isinstance(s, (int, Fraction)) else _fraction(s)
    (a, b), (c, d) = r.as_integer_ratio(), s.as_integer_ratio()
    return (_valuation(a * d + b * c, p) - _valuation(b * d, p)
            >= min(_valuation(r, p), _valuation(s, p)))


# -- quadratic extension level arithmetic -------------------------------------


LevelArithmetic = namedtuple("LevelArithmetic", "composed_level trace_ideal_exponent")


def extension_level_arithmetic(n: int, e: int) -> LevelArithmetic:
    """Level bookkeeping for a quadratic extension E/F with ramification index e.

    Composing a level-n character of F^x with the norm gives a character of
    E^x of level e*n, and the trace maps the (1+n)-th power of E's maximal
    ideal onto the (1 + floor(n/e))-th power of F's.
    """
    if type(e) is not int or e not in (1, 2):
        raise BadRamification(f"ramification index of a quadratic extension is 1 or 2, got {e}")
    _check_int(n, 1, LevelOutOfRange, "level")
    return LevelArithmetic(composed_level=e * n, trace_ideal_exponent=1 + n // e)


def quadratic_extension_count(p: int) -> int:
    """Number of quadratic extensions of Q_p: 3 for odd p, 7 for p = 2."""
    _check_prime(p, NotPrime)
    return 7 if p == 2 else 3


# -- affine Weyl group ---------------------------------------------------------

_LETTERS = ("w", "w'")
_PRIMED = _LETTERS[1:]  # the opening of a word that starts with w'

#: Word-list guard: the longest bound weyl_words, weyl_texts and weyl_enumerate take.
#: The list that weyl_enumerate returns holds about L^2 letters; `python -m vndim.cli
#: padic weyl --max-length 2000` builds no word and prints its 6 MB of running joins
#: of the letters in about 0.14 s, 0.07 s of it interpreter start (2-core Xeon).
WEYL_LENGTH_GUARD = 2000

#: w w' w w' ...: a listed word is a slice, and its running joins are the listed texts.
_ALTERNATING = _LETTERS * (WEYL_LENGTH_GUARD // 2 + 1)


class ReducedWeylWord(_Sealed, namedtuple("ReducedWeylWord", "letters")):
    """Reduced word in the infinite dihedral group on two involutions w, w'.

    Reduced means no two adjacent letters are equal (the only relations are
    w^2 = w'^2 = 1), so a reduced word is determined by its length and first
    letter; the empty word is the identity.  ``letters`` is always a tuple.
    """

    __slots__ = ()

    def __new__(cls, letters=()):
        # Checked here, for pickle too.  A reduced word alternates from its first letter:
        # up to the guard's length one C tuple compare accepts it; others are scanned.
        try:
            letters = tuple(letters)
        except TypeError:
            raise ValueError(f"letters must be an iterable, got {letters!r}") from None
        first = letters[:1] == _PRIMED  # 1 when the word opens with w'
        if letters != _ALTERNATING[first:first + len(letters)]:
            for letter in letters:
                if letter not in _LETTERS:
                    raise ValueError(f"letters must be 'w' or \"w'\", got {letter!r}")
            for left, right in zip(letters, letters[1:]):
                if left == right:
                    raise ValueError(f"word {letters} is not reduced")
        return tuple.__new__(cls, (letters,))

    def __init__(self, letters=()):
        pass  # empty: perfbench/spans.py times the class here

    @property
    def length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters) or "1"


def weyl_words(max_length: int):
    """Iterator over the reduced words of length <= max_length, in weyl_enumerate's
    order, each built when it is reached; refused at the call as weyl_enumerate refuses."""
    _check_int(max_length, 0, NegativeLength, "word length bound")
    if max_length > WEYL_LENGTH_GUARD:
        raise TooLarge(
            f"word length bound {max_length} exceeds Weyl-word guard {WEYL_LENGTH_GUARD}"
        )
    return _words(max_length)


def weyl_texts(max_length: int) -> list:
    """[str(w) for w in weyl_words(max_length)], refused as it refuses, with no word built."""
    weyl_words(max_length)  # for its refusals alone: the iterator builds nothing unless run
    texts = ["1"] * (2 * max_length + 1)  # then w, ww', ... and w', w'w, ... in turn
    texts[1::2] = accumulate(_ALTERNATING[:max_length])
    texts[2::2] = accumulate(_ALTERNATING[1:max_length + 1])
    return texts


def _words(max_length: int):
    yield ReducedWeylWord(())
    for k in range(1, max_length + 1):
        yield ReducedWeylWord(_ALTERNATING[:k])
        yield ReducedWeylWord(_ALTERNATING[1:k + 1])


def weyl_enumerate(max_length: int) -> list:
    """All reduced words of length <= max_length: the identity, then two per length;
    TooLarge past WEYL_LENGTH_GUARD."""
    return list(weyl_words(max_length))


def weyl_length_histogram(max_length: int) -> dict:
    """Length -> count over weyl_words(max_length), which holds one word at a time."""
    return Counter(word.length for word in weyl_words(max_length))


def weyl_partial_sum(q, max_length: int) -> Fraction:
    """Partial sum 2 * sum_{l(g) <= L} q^(-l(g)) = 2(1 + 2 sum_{k=1..L} q^(-k)), exact.

    Strictly increasing in L and bounded by the closed form; the square-integral
    of the distinguished Steinberg matrix coefficient is its limit.  The terms
    are added over their common denominator q^L, as s = sum_{k=1..L} q^(L-k),
    so each step multiplies by q and adds 1, and one Fraction is built at the end.
    TooLarge when q^L has more than RESULT_DIGIT_GUARD digits.
    """
    n = as_prime_power(q).q
    _check_int(max_length, 0, NegativeLength, "word length bound")
    _check_digits(n, max_length)
    s = 0
    for _ in range(max_length):
        s = s * n + 1
    power = n**max_length
    return Fraction(2 * (power + 2 * s), power)


def weyl_closed_form(q) -> Fraction:
    """The full series: 2(q+1)/(q-1)."""
    n = as_prime_power(q).q
    return Fraction(2 * (n + 1), n - 1)


# -- Haar normalizations -------------------------------------------------------


class HaarNormalization(enum.Enum):
    """Which compact subgroup (image modulo center) gets which volume."""

    IWAHORI_ONE = "iwahori1"  # vol(I.Z/Z) = 1, hence vol(K.Z/Z) = q+1
    K_ONE = "k1"              # vol(K.Z/Z) = 1
    K_Q_PLUS_ONE = "kq1"      # vol(K.Z/Z) = q+1
    K_HALF_Q_MINUS_ONE = "khalf"  # vol(K.Z/Z) = (q-1)/2; Steinberg degree 1


HaarVolumes = namedtuple("HaarVolumes", "vol_IZ vol_KZ")


def _vol_KZ(q: int, norm: HaarNormalization) -> Fraction:
    if norm in (HaarNormalization.IWAHORI_ONE, HaarNormalization.K_Q_PLUS_ONE):
        return Fraction(q + 1)
    if norm is HaarNormalization.K_ONE:
        return Fraction(1)
    if norm is HaarNormalization.K_HALF_Q_MINUS_ONE:
        return Fraction(q - 1, 2)
    raise TypeError(f"norm must be a HaarNormalization, got {norm!r}")


def haar_volumes(q, norm: HaarNormalization) -> HaarVolumes:
    """Volumes of I.Z/Z and K.Z/Z; the Iwahori subgroup has index q+1 in K."""
    n = as_prime_power(q).q
    kz = _vol_KZ(n, norm)
    return HaarVolumes(vol_IZ=kz / (n + 1), vol_KZ=kz)


def steinberg_formal_dim(q, norm: HaarNormalization) -> Fraction:
    """Formal dimension of the Steinberg representation under the normalization.

    (q-1)/2 when vol(K.Z/Z) = 1; formal dimension scales as 1/measure, so in
    general it is (q-1)/2 divided by vol(K.Z/Z).
    """
    n = as_prime_power(q).q
    return Fraction(n - 1, 2) / _vol_KZ(n, norm)


def depth_zero_formal_dim(q, norm: HaarNormalization) -> Fraction:
    """Formal dimension of a depth-zero cuspidal representation.

    Compact induction from Z.K gives dim(inducing representation)/vol(K.Z/Z),
    and the inducing cuspidal representation of GL(2,F_q) has dimension q-1.
    """
    n = as_prime_power(q).q
    return Fraction(n - 1) / _vol_KZ(n, norm)


# -- lattices ------------------------------------------------------------------


#: Torsion-free cocompact lattice: free of rank n, with h double cosets mod K;
#: q is a PrimePower.
PadicLattice = namedtuple("PadicLattice", "q rank h")


def ihara_lattice(q, n: int) -> PadicLattice:
    """The rank-n free lattice, which exists iff h = 2(n-1)/(q-1) is an integer."""
    pp = as_prime_power(q)
    _check_int(n, 2, NoSuchLattice, "free rank")
    h, rem = divmod(2 * (n - 1), pp.q - 1)
    if rem != 0:
        raise NoSuchLattice(
            f"no free rank-{n} lattice for q={pp.q}: 2(n-1)/(q-1) = "
            f"{2 * (n - 1)}/{pp.q - 1} is not an integer"
        )
    return PadicLattice(q=pp, rank=n, h=h)


def lattice_covolume(q, n: int, norm: HaarNormalization) -> Fraction:
    """Covolume of the rank-n free lattice: h * vol(K.Z/Z).

    Under K=1 this is h = 2(n-1)/(q-1); under K=(q-1)/2 it collapses to n-1.
    """
    lattice = ihara_lattice(q, n)
    return lattice.h * _vol_KZ(lattice.q.q, norm)


class PadicRep(enum.Enum):
    """The two square-integrable representations with computable dimensions here."""

    STEINBERG = "steinberg"
    DEPTH_ZERO_CUSPIDAL = "cuspidal"


def vn_dimension_padic(q, n: int, rep: PadicRep, norm: HaarNormalization) -> Fraction:
    """Von Neumann dimension over the rank-n free lattice: formal dim x covolume.

    The measure dependence cancels, leaving n-1 for Steinberg and 2(n-1) for
    the depth-zero cuspidal representation under every normalization.
    """
    pp = as_prime_power(q)
    covol = lattice_covolume(pp, n, norm)
    if rep is PadicRep.STEINBERG:
        return steinberg_formal_dim(pp, norm) * covol
    if rep is PadicRep.DEPTH_ZERO_CUSPIDAL:
        return depth_zero_formal_dim(pp, norm) * covol
    raise TypeError(f"rep must be a PadicRep, got {rep!r}")


# -- Jacquet-Langlands table -----------------------------------------------------


class JLTag(enum.Enum):
    GENERALIZED_SPECIAL = "special"
    UNRAMIFIED_CUSPIDAL = "unram"
    RAMIFIED_CUSPIDAL = "ram"


class JLClass(_Sealed, namedtuple("JLClass", "tag conductor", defaults=(0,))):
    """Discrete-series class seen through the quaternion side of the correspondence.

    Cuspidal classes carry the conductor j of the character in a minimal
    admissible pair (one more than its level); ramified classes only exist
    with even conductor.
    """

    __slots__ = ()

    def __new__(cls, tag: JLTag, conductor: int = 0):  # checks, for a pickle that calls it alone
        if not isinstance(tag, JLTag):
            raise ValueError(f"tag must be a JLTag, got {tag!r}")
        special = tag is JLTag.GENERALIZED_SPECIAL
        _check_int(conductor, None if special else 1, ValueError, "conductor")
        if special and conductor:
            raise ValueError("generalized special classes carry no conductor")
        if tag is JLTag.RAMIFIED_CUSPIDAL and conductor % 2 != 0:
            raise OddRamifiedConductor(
                f"ramified cuspidal classes need an even conductor, got {conductor}"
            )
        return tuple.__new__(cls, (tag, conductor))

    def __str__(self) -> str:
        if self.tag is JLTag.GENERALIZED_SPECIAL:
            return "special"
        return f"{self.tag.value}:j={self.conductor}"


def parse_jl_class(text: str) -> JLClass:
    """Parse "special", "unram:j=<n>", "ram:j=<n>"."""
    s = text.strip() if isinstance(text, str) else ""  # "" is refused below as malformed
    if s == "special":
        return JLClass(JLTag.GENERALIZED_SPECIAL)
    tag_text, _, j_text = s.partition(":j=")
    try:
        tag = JLTag(tag_text)
        conductor = int(j_text)
    except ValueError:
        raise ValueError(
            f"cannot parse class {_quote(text)}; expected special, unram:j=<n>, or ram:j=<n>"
        ) from None
    return JLClass(tag, conductor)


def jl_formal_dim(p: int, cls: JLClass) -> int:
    """Formal dimension of the class, normalized so the Steinberg degree is 1.

    Under that normalization (vol(K.Z/Z) = (q-1)/2) formal dimensions equal
    the plain dimensions of the matching irreducible representations of the
    quaternion division algebra's unit group:

        1                      generalized special
        2 p^(j-1)              unramified cuspidal, j = 1, 2, 3, ...
        (p+1) p^((j-2)/2)      ramified cuspidal,   j = 2, 4, 6, ...

    Only prime residue orders are supported here (the table is stated over Q_p).
    TooLarge when its power of p has more than RESULT_DIGIT_GUARD digits.
    """
    _check_jl_prime(p)
    return _jl_formal_dim(p, cls)


def _check_jl_prime(p: int) -> None:
    _check_prime(p, NotPrime, "the formal-dimension table needs a prime p, got {}")
    if p == 2:
        raise EvenResidue("the formal-dimension table assumes odd residue order")


def _jl_formal_dim(p: int, cls: JLClass) -> int:
    """jl_formal_dim with p already known to be an odd prime."""
    if cls.tag is JLTag.GENERALIZED_SPECIAL:
        return 1
    if cls.tag is JLTag.UNRAMIFIED_CUSPIDAL:
        _check_digits(p, cls.conductor - 1)
        return 2 * p ** (cls.conductor - 1)
    _check_digits(p, cls.conductor // 2)
    return (p + 1) * p ** ((cls.conductor - 2) // 2)
