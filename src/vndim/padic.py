"""The PGL(2,F) side: valuations, Haar bookkeeping, lattices, formal dimensions.

F is a non-archimedean local field of characteristic 0 whose residue field has
odd order q.  Everything computable here reduces to exact rational arithmetic:

* p-adic valuations and absolute values of rationals;
* level arithmetic for characters of quadratic extensions;
* reduced words in the affine Weyl group W0 (infinite dihedral: two involutive
  generators, exactly two elements of each positive length), whose length
  series 2 * sum q^(-l) governs square-integrability of the Steinberg
  representation;
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
  formal degree 1 (that is, vol(K.Z/Z) = (q-1)/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadRamification,
    EvenResidue,
    LevelOutOfRange,
    NegativeLength,
    NoSuchLattice,
    NotPrime,
    OddRamifiedConductor,
)
from .finite_field import PrimePower, as_prime_power, is_prime

#: Valuation of 0: ordered above every integer, absorbs addition.
INFINITE_VALUATION = math.inf


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


def padic_valuation(r: Fraction, p: int):
    """Exponent v with r = p^v * (a/b), p dividing neither a nor b; v(0) = +inf."""
    _check_prime(p)
    return _valuation(r, p)


def _valuation(r: Fraction, p: int):
    """padic_valuation with p already known to be prime."""
    r = Fraction(r)
    if r == 0:
        return INFINITE_VALUATION
    v = 0
    num, den = abs(r.numerator), r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_abs(r: Fraction, p: int) -> Fraction:
    """|r|_p = p^(-v(r)) as an exact rational, with |0|_p = 0."""
    _check_prime(p)
    return _abs_from_valuation(_valuation(r, p), p)


def _abs_from_valuation(v, p: int) -> Fraction:
    """p^(-v) as an exact rational, and 0 for v = +inf."""
    if math.isinf(v):
        return Fraction(0)
    return Fraction(1, p**v) if v >= 0 else Fraction(p ** (-v))


def ultrametric_check(r: Fraction, s: Fraction, p: int) -> bool:
    """|r + s|_p <= max(|r|_p, |s|_p); true for every pair, by ultrametricity."""
    _check_prime(p)

    def abs_p(x):
        return _abs_from_valuation(_valuation(x, p), p)

    return abs_p(Fraction(r) + Fraction(s)) <= max(abs_p(r), abs_p(s))


# -- quadratic extension level arithmetic -------------------------------------


@dataclass(frozen=True)
class LevelArithmetic:
    composed_level: int
    trace_ideal_exponent: int


def extension_level_arithmetic(n: int, e: int) -> LevelArithmetic:
    """Level bookkeeping for a quadratic extension E/F with ramification index e.

    Composing a level-n character of F^x with the norm gives a character of
    E^x of level e*n, and the trace maps the (1+n)-th power of E's maximal
    ideal onto the (1 + floor(n/e))-th power of F's.
    """
    if e not in (1, 2):
        raise BadRamification(f"ramification index of a quadratic extension is 1 or 2, got {e}")
    if n < 1:
        raise LevelOutOfRange(f"level must be >= 1, got {n}")
    return LevelArithmetic(composed_level=e * n, trace_ideal_exponent=1 + n // e)


def quadratic_extension_count(p: int) -> int:
    """Number of quadratic extensions of Q_p: 3 for odd p, 7 for p = 2."""
    _check_prime(p)
    return 7 if p == 2 else 3


# -- affine Weyl group ---------------------------------------------------------

_LETTERS = ("w", "w'")


@dataclass(frozen=True)
class ReducedWeylWord:
    """Reduced word in the infinite dihedral group on two involutions w, w'.

    Reduced means no two adjacent letters are equal (the only relations are
    w^2 = w'^2 = 1), so a reduced word is determined by its length and first
    letter; the empty word is the identity.
    """

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter not in _LETTERS:
                raise ValueError(f"letters must be 'w' or \"w'\", got {letter!r}")
        for left, right in zip(self.letters, self.letters[1:]):
            if left == right:
                raise ValueError(f"word {self.letters} is not reduced")

    @property
    def length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters) or "1"


def _check_length(max_length: int) -> None:
    if max_length < 0:
        raise NegativeLength(f"word length bound must be >= 0, got {max_length}")


def weyl_enumerate(max_length: int) -> list:
    """All reduced words of length <= max_length: the identity, then two per length."""
    _check_length(max_length)
    words = [ReducedWeylWord(())]
    for k in range(1, max_length + 1):
        for first in _LETTERS:
            letters = tuple(_LETTERS[(_LETTERS.index(first) + i) % 2] for i in range(k))
            words.append(ReducedWeylWord(letters))
    return words


def weyl_length_histogram(max_length: int) -> dict:
    """Length -> count over weyl_enumerate(max_length)."""
    hist: dict = {}
    for word in weyl_enumerate(max_length):
        hist[word.length] = hist.get(word.length, 0) + 1
    return hist


def weyl_partial_sum(q, max_length: int) -> Fraction:
    """Partial sum 2 * sum_{l(g) <= L} q^(-l(g)) = 2(1 + 2 sum_{k=1..L} q^(-k)), exact.

    Strictly increasing in L and bounded by the closed form; the square-integral
    of the distinguished Steinberg matrix coefficient is its limit.
    """
    n = as_prime_power(q).q
    _check_length(max_length)
    return 2 * (1 + 2 * sum(Fraction(1, n**k) for k in range(1, max_length + 1)))


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


@dataclass(frozen=True)
class HaarVolumes:
    vol_IZ: Fraction
    vol_KZ: Fraction


def _vol_KZ(q: int, norm: HaarNormalization) -> Fraction:
    if norm is HaarNormalization.IWAHORI_ONE:
        return Fraction(q + 1)
    if norm is HaarNormalization.K_ONE:
        return Fraction(1)
    if norm is HaarNormalization.K_Q_PLUS_ONE:
        return Fraction(q + 1)
    return Fraction(q - 1, 2)


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


def cms_steinberg_check(q, n: int = 2) -> Fraction:
    """Independent closed form (1/n) * prod_{k=1..n-1} (q^k - 1) for the Steinberg
    formal degree of GL(n,F) under vol(K.Z/Z) = 1; n = 2 is the case used here."""
    m = as_prime_power(q).q
    prod = 1
    for k in range(1, n):
        prod *= m**k - 1
    return Fraction(prod, n)


# -- lattices ------------------------------------------------------------------


@dataclass(frozen=True)
class PadicLattice:
    """Torsion-free cocompact lattice: free of rank n, with h double cosets mod K."""

    q: PrimePower
    rank: int
    h: int


def ihara_lattice(q, n: int) -> PadicLattice:
    """The rank-n free lattice, which exists iff h = 2(n-1)/(q-1) is an integer."""
    pp = as_prime_power(q)
    if n < 2:
        raise NoSuchLattice(f"free rank must be >= 2, got {n}")
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
    if rep is PadicRep.STEINBERG:
        d = steinberg_formal_dim(pp, norm)
    else:
        d = depth_zero_formal_dim(pp, norm)
    return d * lattice_covolume(pp, n, norm)


# -- Jacquet-Langlands table -----------------------------------------------------


class JLTag(enum.Enum):
    GENERALIZED_SPECIAL = "special"
    UNRAMIFIED_CUSPIDAL = "unram"
    RAMIFIED_CUSPIDAL = "ram"


@dataclass(frozen=True)
class JLClass:
    """Discrete-series class seen through the quaternion side of the correspondence.

    Cuspidal classes carry the conductor j of the character in a minimal
    admissible pair (one more than its level); ramified classes only exist
    with even conductor.
    """

    tag: JLTag
    conductor: int = 0

    def __post_init__(self):
        if self.tag is JLTag.GENERALIZED_SPECIAL:
            if self.conductor:
                raise ValueError("generalized special classes carry no conductor")
            return
        if self.conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {self.conductor}")
        if self.tag is JLTag.RAMIFIED_CUSPIDAL and self.conductor % 2 != 0:
            raise OddRamifiedConductor(
                f"ramified cuspidal classes need an even conductor, got {self.conductor}"
            )

    def __str__(self) -> str:
        if self.tag is JLTag.GENERALIZED_SPECIAL:
            return "special"
        return f"{self.tag.value}:j={self.conductor}"


def parse_jl_class(text: str) -> JLClass:
    """Parse "special", "unram:j=<n>", "ram:j=<n>"."""
    s = text.strip()
    if s == "special":
        return JLClass(JLTag.GENERALIZED_SPECIAL)
    tag_text, _, j_text = s.partition(":j=")
    try:
        tag = JLTag(tag_text)
        conductor = int(j_text)
    except ValueError:
        raise ValueError(
            f"cannot parse class {text!r}; expected special, unram:j=<n>, or ram:j=<n>"
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
    """
    _check_jl_prime(p)
    return _jl_formal_dim(p, cls)


def _check_jl_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrime(f"the formal-dimension table needs a prime p, got {p}")
    if p == 2:
        raise EvenResidue("the formal-dimension table assumes odd residue order")


def _jl_formal_dim(p: int, cls: JLClass) -> int:
    """jl_formal_dim with p already known to be an odd prime."""
    if cls.tag is JLTag.GENERALIZED_SPECIAL:
        return 1
    if cls.tag is JLTag.UNRAMIFIED_CUSPIDAL:
        return 2 * p ** (cls.conductor - 1)
    return (p + 1) * p ** ((cls.conductor - 2) // 2)
