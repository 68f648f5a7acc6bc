"""Exact scalars of the form (rational) * pi^e with e in {-1, 0, 1}.

Every covolume, formal dimension, and von Neumann dimension computed by this
package is rational, rational times pi, or rational divided by pi, so a pair
(coefficient, pi exponent) represents all of them with zero rounding.  The
rational coefficient is a stdlib ``fractions.Fraction``, which is stored
reduced with a positive denominator and uses arbitrary-precision integers.

The exponent range is deliberately *not* widened: pi^2 never appears, and
keeping the exponent in {-1, 0, 1} keeps comparison decidable (like terms
compare by coefficient; unlike terms are refused rather than approximated).
"""

import functools
import re
import sys
from fractions import Fraction

from .errors import ExponentOverflow, IncomparableExponents, TooLarge

#: Half the most decimal digits that str() converts in one piece: 600 digits
#: stay under the lowest int-to-str limit Python accepts (640; 4300 by default).
_CHUNK_DIGITS = 300

#: A decimal exponent as Fraction reads it (compiled on first use, not at import).
_EXPONENT = r"e([-+]?\d+(?:_\d+)*)"


def _fraction(value) -> Fraction:
    """Fraction(value), text read as int() reads it, under the int-to-str digit limit:
    TooLarge for a decimal exponent past the limit (before 10 is raised to it), then for a
    longer run of digits, numerator or denominator.  inf or "1/0" is a ValueError, as nan is."""
    limit = sys.get_int_max_str_digits() if isinstance(value, str) else 0  # 0: no limit
    if limit and ("e" in value or "E" in value) and any(
            len(e) > limit or abs(int(e)) > limit  # len first: int() refuses a longer e
            for e in re.findall(_EXPONENT, value, re.I)):
        raise TooLarge(f"{value!r} has an exponent above {limit}, the int-to-str digit limit")
    try:
        r = Fraction(value)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"{value!r} is not a finite rational") from None
    except ValueError:  # int() refuses a longer run of digits: the runs are measured only then
        if limit and max(map(len, re.findall(r"\d+", value.replace("_", ""))), default=0) > limit:
            raise TooLarge(f"{value!r} has a numerator or denominator longer than {limit} "
                           "digits") from None
        raise
    term = max(abs(r.numerator), r.denominator)
    if limit and term.bit_length() > 3.32 * limit and term >= 10**limit:  # log2(10) > 3.32
        raise TooLarge(f"{value!r} has a numerator or denominator longer than {limit} digits")
    return r


def int_text(n: int) -> str:
    """str(n) for an int of any length, without touching the interpreter's
    process-wide int-to-str digit limit: a long n is split by a power of 10
    into halves, each converted the same way."""
    if n < 0:
        return "-" + int_text(-n)
    half = int(n.bit_length() * 0.30103) // 2  # about half of n's digits
    if half < _CHUNK_DIGITS:
        return str(n)
    high, low = divmod(n, 10**half)
    return int_text(high) + int_text(low).zfill(half)


@functools.total_ordering  # <=, > and >= from __lt__ and __eq__: unlike terms raise alike
class PiRational:
    """An exact value coeff * pi^pi_exp, canonical: coeff == 0 forces pi_exp == 0.

    ``coeff`` is always a plain ``Fraction``: a plain ``Fraction`` is stored as given,
    not copied (it is immutable); anything else, a subclass included, is converted by
    ``Fraction()``, text under the int-to-str digit limit (TooLarge past it), and a
    value that is not a finite rational, inf or "1/0", is a ValueError.
    ``pi_exp`` is an int (not a bool) in {-1, 0, 1}; any other is an ExponentOverflow.
    """

    __slots__ = ("coeff", "pi_exp")

    def __init__(self, coeff: Fraction | int, pi_exp: int = 0):
        if type(coeff) is not Fraction:
            coeff = _fraction(coeff)
        if type(pi_exp) is not int:  # a bool or 1.0 would not survive the JSON round trip
            raise ExponentOverflow(f"pi exponent must be an integer, got {pi_exp!r}")
        if pi_exp != 0 and not coeff:
            pi_exp = 0
        if pi_exp not in (-1, 0, 1):
            raise ExponentOverflow(f"pi exponent {pi_exp} outside supported range [-1, 1]")
        _set_coeff(self, coeff)
        _set_pi_exp(self, pi_exp)

    def __setattr__(self, name, value=None):
        raise AttributeError("PiRational is immutable")

    __delattr__ = __setattr__  # deletion is refused alike (value defaults to None)

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), (self.coeff, self.pi_exp)

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "PiRational | Fraction | int") -> "PiRational":
        if not isinstance(other, PiRational):
            other = PiRational(other)
        # Fraction's int/int constructor reduces with one gcd.  The constructor checks
        # the exponent: a zero factor is stored with exponent 0.
        (a, b), (c, d) = self.coeff.as_integer_ratio(), other.coeff.as_integer_ratio()
        return PiRational(Fraction(a * c, b * d), self.pi_exp + other.pi_exp)

    __rmul__ = __mul__

    def inverse(self) -> "PiRational":
        if self.coeff == 0:
            raise ZeroDivisionError("inverse of exact zero")
        return PiRational(1 / self.coeff, -self.pi_exp)

    def __truediv__(self, other: "PiRational | Fraction | int") -> "PiRational":
        if not isinstance(other, PiRational):
            other = PiRational(other)
        return self * other.inverse()

    # -- comparison ----------------------------------------------------

    def compare(self, other: "PiRational | Fraction | int") -> int:
        """Total order on like terms: -1, 0, or 1.

        Only scalars with equal pi exponent are ordered; mixed exponents would
        need a numeric approximation of pi, which this type refuses to make.
        Zero is a like term of every exponent (it is stored with exponent 0), and
        c * pi^e has the sign of c, so a zero on either side orders by coefficient.
        An int or a Fraction is pi^0, as == takes it; any other type is a TypeError.
        """
        if isinstance(other, (int, Fraction)):
            other = PiRational(other)
        elif not isinstance(other, PiRational):
            raise TypeError(f"cannot order a PiRational against type {type(other).__name__!r}")
        if self.pi_exp != other.pi_exp and self.coeff and other.coeff:
            raise IncomparableExponents(
                f"cannot order pi^{self.pi_exp} against pi^{other.pi_exp} exactly"
            )
        if self.coeff < other.coeff:
            return -1
        if self.coeff > other.coeff:
            return 1
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, PiRational):
            return self.coeff == other.coeff and self.pi_exp == other.pi_exp
        if isinstance(other, (int, Fraction)):
            return self.pi_exp == 0 and self.coeff == other
        return NotImplemented

    def __hash__(self):  # with no pi factor, as the int or Fraction it equals
        return hash((self.coeff, self.pi_exp) if self.pi_exp else self.coeff)

    def __lt__(self, other: "PiRational | Fraction | int") -> bool:
        return self.compare(other) < 0

    # -- conversions ---------------------------------------------------

    def as_rational(self) -> Fraction:
        """The coefficient, provided the value carries no pi factor."""
        if self.pi_exp != 0:
            raise IncomparableExponents("value has a pi factor; it is not rational")
        return self.coeff

    def to_json_dict(self) -> dict:
        return {"num": self.coeff.numerator, "den": self.coeff.denominator,
                "pi_exp": self.pi_exp}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PiRational":
        """Inverse of to_json_dict; each field must be a JSON integer, den nonzero.

        A float, string or boolean is rejected with TypeError rather than
        coerced, since int() would silently truncate 1.5 to 1.
        """
        num, den, pi_exp = data["num"], data["den"], data["pi_exp"]
        for value in (num, den, pi_exp):
            if type(value) is not int:
                raise TypeError(f"num, den and pi_exp must be integers, got {value!r}")
        if not den:
            raise ValueError("den must be nonzero, got 0")
        return cls(Fraction(num, den), pi_exp)

    def render(self, ascii_pi: bool = False) -> str:
        """Canonical text form: "a/b", "a/b·π", "a/(b·π)" (or "pi"/"*" in ASCII mode)."""
        pi, dot = ("pi", "*") if ascii_pi else ("π", "·")
        num, den = int_text(self.coeff.numerator), int_text(self.coeff.denominator)
        if self.pi_exp == -1:
            return f"{num}/{pi}" if den == "1" else f"{num}/({den}{dot}{pi})"
        text = num if den == "1" else f"{num}/{den}"
        if self.pi_exp == 1:  # 1 and -1 times pi print as pi and -pi
            return text[:-1] + pi if text in ("1", "-1") else f"{text}{dot}{pi}"
        return text

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PiRational({self.coeff!r}, {self.pi_exp})"


_set_coeff, _set_pi_exp = PiRational.coeff.__set__, PiRational.pi_exp.__set__

#: The constant pi as an exact scalar.
PI = PiRational(1, 1)


def parse_pi_rational(text: str) -> PiRational:
    """Parse the canonical text forms back into an exact scalar.

    Accepts both the unicode and ASCII renderings ("1/3·π", "1/3*pi",
    "5/(4*pi)", "2*pi", "pi", "-pi", "7/2", "4"), with optional whitespace.
    Every coefficient is read as Fraction reads text, under the digit limit, and
    a/(b*pi) as a over pi divided by b, an unsigned nonzero integer.
    """
    s = (text.strip().replace("π", "pi").replace("·", "*").replace(" ", "")
         if isinstance(text, str) else "")  # "" is refused below as malformed
    try:
        scale = 1
        if s.endswith("*pi)"):  # a/(b*pi) is a/pi times 1/b
            s, _, den = s[:-4].partition("/(")
            s, scale = s + "/pi", _fraction("1/" + den)
        s = {"pi": "1*pi", "-pi": "-1*pi"}.get(s, s)
        pi_exp = {"*pi": 1, "/pi": -1}.get(s[-3:], 0)
        return PiRational(_fraction(s[:-3] if pi_exp else s) * scale, pi_exp)
    except ValueError:  # TooLarge, a DomainError, passes
        raise ValueError(f"cannot parse scalar {text!r}") from None
