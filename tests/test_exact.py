import json
import math
import operator
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vndim.errors import ExponentOverflow, IncomparableExponents, TooLarge
from vndim.exact import PI, PiRational, int_text, parse_pi_rational


def test_mul_cancels_pi_factors():
    # (5/(4 pi)) * (2 pi) = 5/2
    d = PiRational(Fraction(5, 4), -1)
    vol = PiRational(2, 1)
    assert d * vol == PiRational(Fraction(5, 2), 0)


def test_mul_identity():
    x = PiRational(Fraction(-7, 3), 1)
    assert x * PiRational(1) == x
    assert PiRational(1) * x == x


def test_mul_hand_checked_product():
    # (3/4)*(1/3) = 1/4, exponents -1 + 1 = 0
    a = PiRational(Fraction(3, 4), -1)
    b = PiRational(Fraction(1, 3), 1)
    assert a * b == PiRational(Fraction(1, 4), 0)


def overflow(exp: int) -> str:
    """The whole of the one ExponentOverflow message, as a pattern for pytest.raises."""
    return "^" + re.escape(f"pi exponent {exp} outside supported range [-1, 1]") + "$"


def test_mul_exponent_overflow():
    # A product is refused by the constructor's check, with its message.
    with pytest.raises(ExponentOverflow, match=overflow(2)):
        PI * PI
    with pytest.raises(ExponentOverflow, match=overflow(-2)):
        PI.inverse() * PI.inverse()


def test_mul_commutative_associative_samples():
    a = PiRational(Fraction(2, 3), 1)
    b = PiRational(Fraction(-5, 7), -1)
    c = PiRational(Fraction(11, 4), 0)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_zero_is_canonical():
    assert PiRational(0, 1).pi_exp == 0
    assert PiRational(0, -1).pi_exp == 0
    z = PiRational(Fraction(3, 2), 1) * PiRational(0)
    assert z == PiRational(0) and z.pi_exp == 0


class FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize("value", [3, -2, True, False, "5/7", "-0", 0.5,
                                   FractionSubclass(4, 6), FractionSubclass(0)])
def test_coefficient_is_always_a_plain_fraction(value):
    for pi_exp in (-1, 0, 1):
        coeff = PiRational(value, pi_exp).coeff
        assert type(coeff) is Fraction and coeff == Fraction(value)


def test_fraction_coefficient_is_stored_as_given():
    value = Fraction(-3, 8)
    for pi_exp in (-1, 0, 1):
        assert PiRational(value, pi_exp).coeff is value


def test_attributes_cannot_be_assigned():
    value = PiRational(Fraction(1, 3), 1)
    for name, new in (("coeff", Fraction(2)), ("pi_exp", 0), ("other", 1)):
        with pytest.raises(AttributeError, match="^PiRational is immutable$"):
            setattr(value, name, new)
    assert (value.coeff, value.pi_exp) == (Fraction(1, 3), 1)


@pytest.mark.parametrize("zero", [0, False, "0", 0.0, Fraction(0), FractionSubclass(0)])
def test_zero_coefficient_stores_exponent_zero_at_every_exponent(zero):
    for pi_exp in (-3, -1, 0, 1, 2):
        assert PiRational(zero, pi_exp).pi_exp == 0


def test_compare_like_terms():
    assert PiRational(2, 1).compare(PiRational(4, 1)) == -1
    assert PiRational(Fraction(1, 4)).compare(PiRational(Fraction(1, 4))) == 0
    assert PiRational(4, 1) > PiRational(2, 1)
    assert PiRational(1) <= PiRational(2) and not PiRational(1) >= PiRational(2)
    assert PiRational(2, 1) <= PiRational(2, 1) and PiRational(2, 1) >= PiRational(2, 1)


def test_compare_mixed_exponents_rejected():
    with pytest.raises(IncomparableExponents):
        PI.compare(PiRational(2))
    # equality stays total even across exponents
    assert PI != PiRational(2)


def test_compare_zero_against_pi_multiples():
    # zero is stored with exponent 0 but is a like term of every exponent
    assert PiRational(0).compare(PI) == -1
    assert PiRational(0).compare(PiRational(-1, -1)) == 1
    assert PI.compare(PiRational(0)) == 1
    assert PiRational(0, 1).compare(PiRational(0, -1)) == 0
    assert PiRational(0) < PiRational(Fraction(1, 3), 1)
    assert PiRational(0) <= PI and PiRational(0) >= PiRational(-1, -1)
    assert not PiRational(0) >= PI


def test_compare_nonzero_unlike_terms_rejected_whatever_their_signs():
    for a, b in [(PI, PiRational(-2)), (PiRational(-1, -1), PiRational(3)),
                 (PiRational(5), PiRational(-1, 1))]:
        for compare in (PiRational.compare, PiRational.__lt__, PiRational.__le__,
                        PiRational.__gt__, PiRational.__ge__):
            with pytest.raises(IncomparableExponents):
                compare(a, b)


#: Plain rationals a PiRational is ordered against, as pi^0 (== already takes them so).
PLAIN = [2, Fraction(1, 2), 0, Fraction(0), -1, True]


@pytest.mark.parametrize("plain", PLAIN, ids=repr)
@pytest.mark.parametrize("value", [PiRational(1), PiRational(Fraction(1, 2)), PiRational(0),
                                   PiRational(0, 1), PiRational(-3)], ids=repr)
def test_a_pi_free_value_orders_against_an_int_or_fraction_in_both_orders(value, plain):
    c = value.coeff
    assert value.compare(plain) == (c > plain) - (c < plain)
    assert (value < plain, value <= plain, value > plain, value >= plain) == (
        c < plain, c <= plain, c > plain, c >= plain)
    assert (plain < value, plain <= value, plain > value, plain >= value) == (
        plain < c, plain <= c, plain > c, plain >= c)


@pytest.mark.parametrize("plain", [2, Fraction(-1, 2), True], ids=repr)
@pytest.mark.parametrize("value", [PI, PiRational(-1, -1)], ids=repr)
def test_a_nonzero_pi_multiple_against_a_nonzero_int_or_fraction_is_refused(value, plain):
    operators = [lambda a, b: a.compare(b), lambda a, b: a < b, lambda a, b: a <= b,
                 lambda a, b: a > b, lambda a, b: a >= b]
    for op in operators:
        with pytest.raises(IncomparableExponents):
            op(value, plain)
    for op in operators[1:]:
        with pytest.raises(IncomparableExponents):
            op(plain, value)


@pytest.mark.parametrize("zero", [0, Fraction(0)], ids=repr)
def test_a_pi_multiple_orders_against_a_zero_int_or_fraction_by_its_sign(zero):
    assert PI > zero and zero < PI and PI >= zero and not PI <= zero
    assert PiRational(-1, -1) < zero and zero > PiRational(-1, -1)
    assert PiRational(2, 1).compare(zero) == 1


@pytest.mark.parametrize("other", [2.0, "2", None, (), 1j], ids=repr)
@pytest.mark.parametrize("value", [PiRational(1), PiRational(0), PI], ids=repr)
def test_any_other_type_is_refused_by_compare_and_the_order_in_both_orders(value, other):
    message = re.escape(f"cannot order a PiRational against type {type(other).__name__!r}")
    with pytest.raises(TypeError, match=message):
        value.compare(other)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError, match=message):
            op(value, other)
        with pytest.raises(TypeError, match=message):
            op(other, value)
    assert (value == other, other == value) == (False, False)  # == answers, unchanged


def test_invalid_exponent_rejected():
    with pytest.raises(ExponentOverflow):
        PiRational(1, 2)
    with pytest.raises(ExponentOverflow, match=overflow(5)):
        PiRational.from_json_dict({"num": 1, "den": 1, "pi_exp": 5})


def test_reduction_invariant_random_products():
    rng = random.Random(20180608)
    exponent_pairs = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, -1), (-1, 1)]
    for _ in range(2000):
        ea, eb = rng.choice(exponent_pairs)
        a = PiRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), ea)
        b = PiRational(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)), eb)
        c = a * b
        assert c.coeff.denominator > 0
        assert math.gcd(abs(c.coeff.numerator), c.coeff.denominator) == 1
        assert c.pi_exp in (-1, 0, 1)
        assert c.coeff != 0 or c.pi_exp == 0


def test_mul_is_exact_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(500):
        ea, eb = rng.choice([(-1, 1), (0, 0), (1, -1), (0, 1), (1, 0), (0, -1), (-1, 0)])
        a = PiRational(Fraction(rng.randint(-999, 999), rng.randint(1, 999)), ea)
        b = PiRational(Fraction(rng.choice([-1, 1]) * rng.randint(1, 999), rng.randint(1, 999)), eb)
        assert (a * b) / b == a


def test_division_by_a_plain_number_and_the_inverse_of_zero():
    assert PI / 2 == PiRational(Fraction(1, 2), 1)
    with pytest.raises(ZeroDivisionError, match="^inverse of exact zero$"):
        PiRational(0).inverse()


def test_equality_with_plain_numbers():
    assert PiRational(3) == 3 and PiRational(Fraction(1, 2)) == Fraction(1, 2)
    assert not PI == 1  # a pi factor is never a plain number
    assert PiRational(1).__eq__("1") is NotImplemented
    assert not PiRational(1) == "1"


@pytest.mark.parametrize("number", [2, Fraction(1, 2)])
def test_a_rational_hashes_as_the_number_it_equals(number):
    value = PiRational(number)
    assert value == number and hash(value) == hash(number)
    assert value in {number} and number in {value}
    assert len({value, number}) == 1
    assert {PiRational(number, 1), number} != {number}  # a pi factor is never a plain number


def test_as_rational_refuses_a_pi_factor():
    assert PiRational(Fraction(5, 2)).as_rational() == Fraction(5, 2)
    with pytest.raises(IncomparableExponents, match="^value has a pi factor; it is not rational$"):
        PI.as_rational()


@pytest.mark.parametrize(
    "value,unicode_text,ascii_text",
    [
        (PiRational(Fraction(5, 2)), "5/2", "5/2"),
        (PiRational(7), "7", "7"),
        (PiRational(-3), "-3", "-3"),
        (PiRational(1, 1), "π", "pi"),
        (PiRational(-1, 1), "-π", "-pi"),
        (PiRational(2, 1), "2·π", "2*pi"),
        (PiRational(Fraction(1, 3), 1), "1/3·π", "1/3*pi"),
        (PiRational(Fraction(-8, 5), 1), "-8/5·π", "-8/5*pi"),
        (PiRational(1, -1), "1/π", "1/pi"),
        (PiRational(Fraction(5, 4), -1), "5/(4·π)", "5/(4*pi)"),
        (PiRational(Fraction(-5, 4), -1), "-5/(4·π)", "-5/(4*pi)"),
        (PiRational(0), "0", "0"),
    ],
)
def test_render_and_parse_round_trip(value, unicode_text, ascii_text):
    assert value.render() == unicode_text
    assert value.render(ascii_pi=True) == ascii_text
    assert parse_pi_rational(unicode_text) == value
    assert parse_pi_rational(ascii_text) == value


def test_json_refuses_a_zero_denominator():
    with pytest.raises(ValueError, match="^den must be nonzero, got 0$"):
        PiRational.from_json_dict({"num": 1, "den": 0, "pi_exp": 0})


def test_json_round_trip():
    values = [
        PiRational(Fraction(5, 2)),
        PiRational(Fraction(-5, 4), -1),
        PiRational(Fraction(2, 3), 1),
        PiRational(0),
    ]
    for x in values:
        blob = json.dumps(x.to_json_dict(), sort_keys=True)
        assert PiRational.from_json_dict(json.loads(blob)) == x


def test_parse_rejects_garbage():
    for bad in ["", "pi/pi", "2**pi", "x", "1/2/3"]:
        with pytest.raises(ValueError):
            parse_pi_rational(bad)


@pytest.mark.parametrize("text", ["--7/2", "--1/3*pi", "--5/(4*pi)", "-+7/2", "-+1/3*pi",
                                  "1/(0*pi)", "-3/(0·π)", "1/(-4*pi)", "-1/(-4*pi)", "1/(+4*pi)"])
def test_parse_refuses_a_second_sign_and_a_zero_denominator(text):
    with pytest.raises(ValueError, match=f"^cannot parse scalar {re.escape(repr(text))}$"):
        parse_pi_rational(text)


@pytest.mark.parametrize("text", ["", " ", "+pi", "*pi", "/(4*pi)", "1/(*pi)", "1/(4.5*pi)",
                                  "1/(2*pi)*pi)", "pi/(2*pi)"])
def test_parse_refuses_malformed_text_with_one_message(text):
    with pytest.raises(ValueError, match=f"^cannot parse scalar {re.escape(repr(text))}$"):
        parse_pi_rational(text)


def test_a_over_b_pi_reads_a_as_every_other_coefficient_is_read():
    assert parse_pi_rational("1.5/(2*pi)") == PiRational(Fraction(3, 4), -1)
    assert parse_pi_rational("1/3/(2·π)") == PiRational(Fraction(1, 6), -1)
    with pytest.raises(TooLarge, match="^'1e4400' has an exponent above "):
        parse_pi_rational("1e4400/(2*pi)")


@given(st.fractions(), st.sampled_from([-1, 0, 1]))
def test_every_scalar_parses_back_from_both_renderings(coeff, pi_exp):
    value = PiRational(coeff, pi_exp)
    assert parse_pi_rational(value.render()) == value
    assert parse_pi_rational(value.render(ascii_pi=True)) == value


@given(st.one_of(st.integers(), st.decimals(-10**9, 10**9, places=6)), st.integers(min_value=1),
       st.sampled_from(["*pi", "·π", " * pi"]))
def test_a_over_b_pi_is_a_over_b_over_pi(a, b, times_pi):
    assert parse_pi_rational(f"{a}/({b}{times_pi})") == PiRational(Fraction(a) / b, -1)


def _read_digits(text: str) -> int:
    """int(text) for any length, read in chunks that stay under the digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    assert digits.isdigit() and (digits == "0" or not digits.startswith("0"))
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def test_int_text_matches_str_below_the_limit():
    rng = random.Random(4300)
    for n in [0, 1, -1, 9, 10, -10**999] + [rng.randrange(-10**4000, 10**4000) for _ in range(50)]:
        assert int_text(n) == str(n)


def test_int_text_is_exact_past_the_limit():
    rng = random.Random(4301)
    # powers of ten and their neighbours put runs of zeros at every split
    cases = [10**k + d for k in (2000, 4300, 9999, 20000) for d in (-1, 0, 1)]
    cases += [3**20000, -(7**9000), 2 * 3**9999]
    cases += [rng.getrandbits(rng.randint(15000, 80000)) for _ in range(30)]
    for n in cases:
        assert _read_digits(int_text(n)) == n


def test_int_text_works_under_the_lowest_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit Python accepts
    try:
        texts = {n: int_text(n) for n in (10**599, 10**600 - 1, 10**640 + 1, 3**20000)}
    finally:
        sys.set_int_max_str_digits(limit)
    for n, text in texts.items():
        assert _read_digits(text) == n


def test_render_is_exact_past_the_limit():
    x = PiRational(Fraction(3**10000, 2**20000), 1)
    num, den = x.render(ascii_pi=True).removesuffix("*pi").split("/")
    assert (_read_digits(num), _read_digits(den)) == (3**10000, 2**20000)
