"""Error hierarchy shared by all vndim modules.

Every exception below signals a *domain* error: the input was parsed fine but
names a mathematically meaningless or out-of-range object.  The CLI maps any
``DomainError`` to exit code 2, reserving exit code 1 for usage errors.  A
refusal quotes an input through ``_quote``, which cuts a long str short.
"""


def _quote(value) -> str:
    """An input as a refusal quotes it: its repr, but a str of more than 100
    characters as the repr of its first 40, "..." and its length, so that no
    message repeats a long input whole."""
    if isinstance(value, str) and len(value) > 100:
        return f"{value[:40]!r}... ({len(value)} characters)"
    return repr(value)


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


class BadCharacterIndex(DomainError):
    """A character index (of F_{q^2}^x or F_q^x, both cyclic) that is not an integer."""


class TooLarge(DomainError):
    """A request past a documented size bound.  The bounds, all module constants:

    * finite_field.FIELD_GUARD = 10**4: the most elements a field model holds, or
      a brute-force enumeration scans (q^2 elements of F_{q^2}, pairs or indices);
    * finite_field.PRIME_BITS_GUARD = 3200: the most bits of a q with no prime
      factor up to 41 (PrimePower.from_int), or of a p (PrimePower(p, f) and the
      p-adic checks of p), that is tested for primality;
    * padic.WEYL_LENGTH_GUARD = 2000: the longest Weyl-word list;
    * padic.RESULT_DIGIT_GUARD = 45 000: the most digits of the power q^L in a
      Weyl partial sum, or of the power of p in a formal dimension of the
      Jacquet-Langlands table;
    * tables.TABLE_ROW_GUARD = 10 000: the most rows a hecke, padic or jl table walks;
    * tables.TABLE_DIGIT_GUARD = 2 * 10**6: about the most digits of a jl table;
    * the interpreter's int-to-str digit limit (4300 by default): the most digits
      of an integer in JSON output, or of the numerator or denominator of any
      rational read from text (a CLI flag or a str passed to the library), and the
      largest decimal exponent such text carries.
    """


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
