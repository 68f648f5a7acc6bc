"""Lattices in PSL(2,R): signatures, covolumes, cusp forms, von Neumann dimensions.

A Fuchsian group of the first kind is determined by its signature
(g; m_1, ..., m_l; h): the genus of the quotient surface, the orders of the
inequivalent elliptic points, and the number of inequivalent cusps.  From the
signature alone one can compute, exactly:

* the covolume, via the Gauss-Bonnet formula (with respect to y^-2 dx dy,
  normalized so vol(quotient of the upper half-plane) = vol(quotient of G));
* dim S_k, the dimension of the space of weight-k cusp forms (k even);
* the multiplicity of the weight-(m+1) holomorphic discrete series in the
  cuspidal spectrum, which equals dim S_{m+1};
* the formal dimension m/(4*pi) of that discrete series; and
* the von Neumann dimension of the discrete series as a module over the group
  von Neumann algebra of the lattice, which is the product of the last two.

Weight bookkeeping: the discrete-series parameter m and the cusp-form weight
k are off by one (m = k - 1).  In PSL(2,R) only odd m occurs (-I must act
trivially); a lattice in SL(2,R) not containing -I admits every m >= 1.
"""

import enum
from collections import namedtuple
from fractions import Fraction

from .errors import (
    InvalidSignature,
    NoOccurrence,
    NonHyperbolic,
    NonPositiveWeight,
    OddWeight,
    ParityViolation,
    UnknownGroup,
    _quote,
)
from .exact import PiRational
from .finite_field import _Sealed, _check_int


class GroupMode(enum.Enum):
    """Whether the lattice lives in PSL(2,R) (default) or in SL(2,R) without -I."""

    PSL2R = "psl"
    SL2R = "sl"


class FuchsianSignature(_Sealed, namedtuple("FuchsianSignature", "genus elliptic_orders cusps")):
    """Signature (genus; elliptic orders; cusps) of a Fuchsian group of the first kind.

    Validity (int genus and cusps, each order an int >= 2, Gauss-Bonnet area
    strictly positive) is enforced here, at construction, so every downstream
    formula may assume a genuine lattice.  ``elliptic_orders`` is always a tuple.
    """

    __slots__ = ()

    def __new__(cls, genus: int, elliptic_orders=(), cusps: int = 0):  # checks, for pickle too
        try:
            orders = tuple(elliptic_orders)
        except TypeError:
            raise InvalidSignature(
                f"elliptic orders must be an iterable of ints, got {elliptic_orders!r}"
            ) from None
        self = tuple.__new__(cls, (genus, orders, cusps))
        _check_int(genus, 0, InvalidSignature, "genus")
        _check_int(cusps, 0, InvalidSignature, "cusp count")
        for m in orders:
            _check_int(m, 2, InvalidSignature, "elliptic order")
        # Each 1 - 1/m >= 1/2: the exact sum decides only when 2g - 2 + h + l/2 <= 0.
        if 4 * genus - 4 + 2 * cusps + len(self.elliptic_orders) <= 0:
            area = self.area_factor()
            if area <= 0:
                raise NonHyperbolic(f"signature {self} has Gauss-Bonnet area 2*pi*{area} <= 0")
        return self

    def __init__(self, genus: int, elliptic_orders=(), cusps: int = 0):
        pass  # empty: perfbench/spans.py times the class here

    def area_factor(self) -> Fraction:
        """The rational 2g - 2 + sum(1 - 1/m_j) + h; covolume is 2*pi times this."""
        orders = self.elliptic_orders
        whole = 2 * self.genus - 2 + len(orders) + self.cusps
        if not orders:
            return Fraction(whole)
        num, den = _reciprocal_sum(orders)
        return Fraction(whole * den - num, den)

    def __str__(self) -> str:
        orders = ",".join(str(m) for m in self.elliptic_orders) or "-"
        return f"{self.genus};{orders};{self.cusps}"


def _reciprocal_sum(orders: tuple) -> tuple[int, int]:
    """(a, b) with a/b = sum(1/m) over the nonempty orders, unreduced.  The halves
    are summed apart, so it costs a few big-int products of the input's size; term
    by term, a growing denominator meets each order, quadratic in their number."""
    if len(orders) == 1:
        return 1, orders[0]
    half = len(orders) // 2
    (a, b), (c, d) = _reciprocal_sum(orders[:half]), _reciprocal_sum(orders[half:])
    return a * d + b * c, b * d


def parse_signature(text: str) -> FuchsianSignature:
    """Parse "g;m1,m2,...;h" ("-" for no elliptic orders), e.g. "0;2,3;1", "0;-;3"."""
    parts = text.strip().split(";") if isinstance(text, str) else ()
    if len(parts) != 3:
        raise InvalidSignature(f"signature must have three ';'-separated fields: {_quote(text)}")
    g_text, orders_text, h_text = (p.strip() for p in parts)
    try:
        genus = int(g_text)
        cusps = int(h_text)
        orders = ()
        if orders_text not in ("-", ""):
            orders = tuple(int(m) for m in orders_text.split(","))
    except ValueError as exc:
        raise InvalidSignature(f"malformed signature {_quote(text)}: {exc}") from None
    return FuchsianSignature(genus, orders, cusps)


def covolume(sig: FuchsianSignature) -> PiRational:
    """Covolume of the lattice, 2*pi*(2g - 2 + sum(1 - 1/m_j) + h), always > 0."""
    return PiRational(2 * sig.area_factor(), 1)


def cusp_form_dim(sig: FuchsianSignature, weight: int) -> int:
    """dim S_weight for the lattice with this signature; weight must be even.

    All five cases of the classical dimension formula:

        (m-1)(g-1) + sum floor((m/2)(1 - 1/e_i)) + (m/2 - 1)h   m > 2
        g                                                       m = 2
        1                                                       m = 0, h = 0
        0                                                       m = 0, h > 0
        0                                                       m < 0
    """
    _check_int(weight, None, OddWeight, "weight")
    if weight % 2 != 0:
        raise OddWeight(f"cusp-form dimension formula needs an even weight, got {weight}")
    if weight < 0:
        return 0
    if weight == 0:
        return 1 if sig.cusps == 0 else 0
    if weight == 2:
        return sig.genus
    half = weight // 2
    dim = (weight - 1) * (sig.genus - 1) + (half - 1) * sig.cusps
    for e in sig.elliptic_orders:
        dim += (half * (e - 1)) // e
    assert dim >= 0, f"dimension formula went negative on valid signature {sig}"
    return dim


def _check_parameter(m: int, mode: GroupMode) -> None:
    _check_int(m, 1, NonPositiveWeight, "discrete-series parameter")
    if mode is GroupMode.PSL2R and m % 2 == 0:
        raise ParityViolation(
            f"parameter {m} is even; only odd parameters act through PSL(2,R)"
        )
    if mode not in (GroupMode.PSL2R, GroupMode.SL2R):
        raise TypeError(f"mode must be a GroupMode, got {mode!r}")


def discrete_series_multiplicity(
    sig: FuchsianSignature, m: int, mode: GroupMode = GroupMode.PSL2R
) -> int:
    """Multiplicity of the parameter-m discrete series in the cuspidal spectrum.

    Equals dim S_{m+1}.  In SL2R mode an even m would need an odd-weight
    cusp-form dimension, which the formula does not give; the parity error
    propagates.
    """
    _check_parameter(m, mode)
    return cusp_form_dim(sig, m + 1)


def formal_dimension_psl(m: int, mode: GroupMode = GroupMode.PSL2R) -> PiRational:
    """Formal dimension m/(4*pi) of the parameter-m discrete series.

    The 4*pi belongs to the Haar normalization compatible with y^-2 dx dy on
    the upper half-plane, the same one the covolume uses.
    """
    _check_parameter(m, mode)
    return PiRational(Fraction(m, 4), -1)


def vn_dimension(
    sig: FuchsianSignature, m: int, mode: GroupMode = GroupMode.PSL2R
) -> Fraction:
    """Von Neumann dimension of the parameter-m discrete series over the lattice algebra.

    Formal dimension times covolume; the pi factors cancel, leaving the exact
    rational (m/2)(2g - 2 + sum(1 - 1/m_j) + h).
    """
    return (formal_dimension_psl(m, mode) * covolume(sig)).as_rational()


def minimal_discrete_series_weight(
    sig: FuchsianSignature,
    mode: GroupMode = GroupMode.PSL2R,
) -> int:
    """Smallest parameter m with discrete_series_multiplicity >= 1, by linear scan.

    Only odd m are scanned in either mode: even parameters would need
    odd-weight cusp-form dimensions, which are out of reach of the dimension
    formula.  The signature bounds the scan.  Each elliptic term obeys
    floor((k/2)(1 - 1/e)) >= (k/2 - 1)(1 - 1/e), so with A = area_factor() and
    k = m + 1, dim S_k >= (k/2 - 1)A + g - 1, which is positive once
    (m - 1)/2 > (1 - g)/A.  As A >= 1/42, the scan ends by m = 87 for genus 0
    and by m = 3 otherwise.
    """
    bound = 2 * ((1 - sig.genus) // sig.area_factor()) + 3
    for m in range(1, bound + 1, 2):
        if discrete_series_multiplicity(sig, m, mode) >= 1:
            return m
    raise AssertionError(f"no discrete series for {sig} with parameter <= {bound}")


def two_lattice_vn_dimension(
    sig1: FuchsianSignature,
    sig2: FuchsianSignature,
    m: int,
) -> Fraction:
    """Dimension of the second lattice's algebra acting on the discrete series
    realized inside the automorphic spectrum of the first.

    Defined whenever the parameter-m series occurs for sig1 at all (multiplicity
    >= 1); the value is then vn_dimension(sig2, m), independent of sig1.  When
    the series does not occur, NoOccurrence is raised carrying the smallest
    parameter that does.
    """
    if discrete_series_multiplicity(sig1, m) < 1:
        minimal = minimal_discrete_series_weight(sig1)
        raise NoOccurrence(
            f"discrete series with parameter {m} does not occur for {sig1} "
            f"(dim S_{m + 1} = 0); smallest occurring parameter is {minimal}",
            minimal_weight=minimal,
        )
    return vn_dimension(sig2, m)


# -- catalog ----------------------------------------------------------------

_CONGRUENCE_CATALOG = {
    "Gamma0(4)": FuchsianSignature(0, (), 3),
    "Gamma0(4)capGamma(2)": FuchsianSignature(0, (), 4),
    "Gamma(4)": FuchsianSignature(0, (), 6),
}

#: The free-group congruence chain, ambient first; entry = (name, free rank).
#: Every chain group is torsion-free (no elliptic orders), so it is free of rank
#: 2g + h - 1.
FREE_CONGRUENCE_CHAIN = tuple((name, 2 * sig.genus + sig.cusps - 1)
                              for name, sig in _CONGRUENCE_CATALOG.items())


def catalog(name: str) -> FuchsianSignature:
    """Signatures of the named groups: "H<q>" (q >= 3) and the congruence chain
    "Gamma0(4)", "Gamma0(4)capGamma(2)", "Gamma(4)"."""
    if isinstance(name, str):  # before the dict lookup, which an unhashable name fails
        if name in _CONGRUENCE_CATALOG:
            return _CONGRUENCE_CATALOG[name]
        if name.startswith("H"):
            try:
                q = int(name[1:])
            except ValueError:
                raise UnknownGroup(f"unknown group {_quote(name)}") from None
            if q < 3:
                raise UnknownGroup(f"Hecke groups need q >= 3, got {_quote(name)}")
            return FuchsianSignature(0, (2, q), 1)
    raise UnknownGroup(f"unknown group {_quote(name)}")
