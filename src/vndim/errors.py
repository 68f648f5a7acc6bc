"""Error hierarchy shared by all vndim modules.

Every exception below signals a *domain* error: the input was parsed fine but
names a mathematically meaningless or out-of-range object.  The CLI maps any
``DomainError`` to exit code 2, reserving exit code 1 for usage errors.
"""


class DomainError(Exception):
    """Base class for all mathematically-invalid-input errors."""


# -- exact scalars ----------------------------------------------------------

class ExponentOverflow(DomainError):
    """A product left the supported pi-exponent range {-1, 0, 1}."""


class IncomparableExponents(DomainError):
    """Ordering was requested between scalars with different pi exponents."""


# -- Fuchsian groups --------------------------------------------------------

class InvalidSignature(DomainError):
    """Structurally malformed signature (negative genus, elliptic order < 2, ...)."""


class NonHyperbolic(DomainError):
    """Signature whose Gauss-Bonnet area is not strictly positive."""


class OddWeight(DomainError):
    """Cusp-form dimension requested at an odd weight (formula needs even weight)."""


class ParityViolation(DomainError):
    """Discrete-series parameter with the wrong parity for the chosen group."""


class NonPositiveWeight(DomainError):
    """Discrete-series parameter below 1."""


class NoOccurrence(DomainError):
    """The requested discrete series does not occur in the automorphic spectrum.

    Carries ``minimal_weight``: the smallest parameter that does occur.
    """

    def __init__(self, message, minimal_weight):
        super().__init__(message)
        self.minimal_weight = minimal_weight


class UnknownGroup(DomainError):
    """Catalog lookup for a name that is not in the catalog."""


# -- finite factors ---------------------------------------------------------

class ZeroSize(DomainError):
    """Matrix-algebra coupling constant with a zero-dimensional factor or space."""


class NonPositive(DomainError):
    """Index of a module dimension that is not strictly positive."""


class NotFiniteIndex(DomainError):
    """Free-group ranks not related by the Nielsen-Schreier formula."""


# -- finite fields ----------------------------------------------------------

class EvenResidue(DomainError):
    """Residue-field order divisible by 2 (everything here assumes odd q)."""


class NotPrimePower(DomainError):
    """An integer that is not p^f for a single prime p."""


class TooLarge(DomainError):
    """A request past a documented size bound: brute-force enumeration past
    ENUMERATION_GUARD, a field model past FIELD_GUARD, a Weyl-word list longer
    than WEYL_LENGTH_GUARD, or JSON output of an integer longer than the
    interpreter's int-to-str digit limit."""


# -- p-adic side ------------------------------------------------------------

class NotPrime(DomainError):
    """A parameter that must be prime is not."""


class BadRamification(DomainError):
    """Ramification index outside {1, 2} for a quadratic extension."""


class LevelOutOfRange(DomainError):
    """Character level below 1."""


class NegativeLength(DomainError):
    """Weyl-word length bound below 0: no word is that short."""


class NoSuchLattice(DomainError):
    """No cocompact free lattice of the requested rank exists for this residue field."""


class OddRamifiedConductor(DomainError):
    """Ramified cuspidal class with an odd conductor (must be even)."""


# -- CLI tables -------------------------------------------------------------

class UnknownTable(DomainError):
    """Table name that the CLI does not know how to regenerate."""
