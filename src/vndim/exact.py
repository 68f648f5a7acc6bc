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

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import ExponentOverflow, IncomparableExponents

_COEFF = Union[Fraction, int]


class PiRational:
    """An exact value coeff * pi^pi_exp, canonical: coeff == 0 forces pi_exp == 0."""

    __slots__ = ("coeff", "pi_exp")

    def __init__(self, coeff: _COEFF, pi_exp: int = 0):
        coeff = Fraction(coeff)
        if coeff == 0:
            pi_exp = 0
        if pi_exp not in (-1, 0, 1):
            raise ExponentOverflow(f"pi exponent {pi_exp} outside supported range [-1, 1]")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_exp", pi_exp)

    def __setattr__(self, name, value):
        raise AttributeError("PiRational is immutable")

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "PiRational | _COEFF") -> "PiRational":
        if not isinstance(other, PiRational):
            other = PiRational(other)
        exp = self.pi_exp + other.pi_exp
        if exp not in (-1, 0, 1):
            raise ExponentOverflow(
                f"product pi exponent {exp} outside supported range [-1, 1]"
            )
        return PiRational(self.coeff * other.coeff, exp)

    __rmul__ = __mul__

    def inverse(self) -> "PiRational":
        if self.coeff == 0:
            raise ZeroDivisionError("inverse of exact zero")
        return PiRational(1 / self.coeff, -self.pi_exp)

    def __truediv__(self, other: "PiRational | _COEFF") -> "PiRational":
        if not isinstance(other, PiRational):
            other = PiRational(other)
        return self * other.inverse()

    # -- comparison ----------------------------------------------------

    def compare(self, other: "PiRational") -> int:
        """Total order on like terms: -1, 0, or 1.

        Only scalars with equal pi exponent are ordered; mixed exponents would
        need a numeric approximation of pi, which this type refuses to make.
        Zero is a like term of every exponent (it is stored with exponent 0), and
        c * pi^e has the sign of c, so a zero on either side orders by coefficient.
        """
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

    def __hash__(self):
        return hash((self.coeff, self.pi_exp))

    def __lt__(self, other: "PiRational") -> bool:
        return self.compare(other) < 0

    def __gt__(self, other: "PiRational") -> bool:
        return self.compare(other) > 0

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
        """Inverse of to_json_dict; each field must be a JSON integer.

        A float, string or boolean is rejected with TypeError rather than
        coerced, since int() would silently truncate 1.5 to 1.
        """
        num, den, pi_exp = data["num"], data["den"], data["pi_exp"]
        for value in (num, den, pi_exp):
            if type(value) is not int:
                raise TypeError(f"num, den and pi_exp must be integers, got {value!r}")
        return cls(Fraction(num, den), pi_exp)

    def render(self, ascii_pi: bool = False) -> str:
        """Canonical text form: "a/b", "a/b·π", "a/(b·π)" (or "pi"/"*" in ASCII mode)."""
        pi = "pi" if ascii_pi else "π"
        dot = "*" if ascii_pi else "·"
        num, den = self.coeff.numerator, self.coeff.denominator
        if self.pi_exp == 0:
            return str(num) if den == 1 else f"{num}/{den}"
        if self.pi_exp == 1:
            if num == den:
                return pi
            if -num == den:
                return f"-{pi}"
            if den == 1:
                return f"{num}{dot}{pi}"
            return f"{num}/{den}{dot}{pi}"
        # pi_exp == -1
        if den == 1:
            return f"{num}/{pi}"
        return f"{num}/({den}{dot}{pi})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"PiRational({self.coeff!r}, {self.pi_exp})"


#: The constant pi as an exact scalar.
PI = PiRational(1, 1)


def parse_pi_rational(text: str) -> PiRational:
    """Parse the canonical text forms back into an exact scalar.

    Accepts both the unicode and ASCII renderings ("1/3·π", "1/3*pi",
    "5/(4*pi)", "2*pi", "pi", "-pi", "7/2", "4"), with optional whitespace.
    """
    s = text.strip().replace("π", "pi").replace("·", "*").replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    sign = 1
    if s.startswith("-"):
        sign = -1
        s = s[1:]
    if s == "pi":
        return PiRational(sign, 1)
    if s.endswith("*pi"):
        return PiRational(sign * Fraction(s[:-3]), 1)
    if s.endswith("/pi"):
        return PiRational(sign * Fraction(s[:-3]), -1)
    if s.endswith("*pi)"):
        head, _, tail = s.partition("/(")
        if not tail.endswith("*pi)"):
            raise ValueError(f"cannot parse scalar {text!r}")
        return PiRational(Fraction(sign * int(head), int(tail[:-4])), -1)
    return PiRational(sign * Fraction(s), 0)
