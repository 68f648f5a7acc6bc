"""The documented size bounds: each refusal is a fast TooLarge (exit 2, nothing on
stdout), and the largest allowed input still answers."""

import importlib
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import vndim
from vndim.cli import OPERATIONS, main, render_result
from vndim.errors import NotPrime, NotPrimePower, TooLarge
from vndim.exact import PI, PiRational, int_text, parse_pi_rational
from vndim.factors import jones_index
from vndim.finite_field import PRIME_BITS_GUARD, PrimePower, is_prime
from vndim.fuchsian import GroupMode, formal_dimension_psl
from vndim.padic import (
    RESULT_DIGIT_GUARD,
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    abs_from_valuation,
    haar_volumes,
    jl_formal_dim,
    padic_abs,
    padic_valuation,
    quadratic_extension_count,
    ultrametric_check,
    vn_dimension_padic,
    weyl_partial_sum,
)
from vndim.tables import TABLE_DIGIT_GUARD, TABLE_ROW_GUARD, build_table, jl_table

from test_cli import WELL_FORMED

LIMIT = sys.get_int_max_str_digits()


def run_timed(capsys, *argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    start = time.perf_counter()
    code = main(list(argv))
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, captured.out, captured.err, seconds


def assert_refused(capsys, *argv, within=0.1):
    code, out, err, seconds = run_timed(capsys, *argv)
    assert (code, out) == (2, ""), err
    assert err.startswith("error: TooLarge: ") and "Traceback" not in err
    assert seconds < within, seconds
    return err


# -- rationals and scalars on the command line -------------------------------------------


@pytest.mark.parametrize("argv", [
    ["padic", "valuation", "--r", "1e60000", "--p", "5"],
    ["padic", "valuation", "--r", "1e-60000", "--p", "5"],
    ["padic", "ultrametric", "--r", "1/3", "--s", "1e120000", "--p", "3"],
    ["factor", "jones", "--sub", "1e60000", "--ambient", "1/2"],
    ["exact", "mul", "--a", "1e400000", "--b", "1"],
    ["exact", "mul", "--a", "1e60000*pi", "--b", "1"],
    ["exact", "compare", "--a", "1/2", "--b", "2e60000/pi"],
    ["exact", "mul", "--a", "1e" + "9" * 4000, "--b", "1"],
    ["exact", "mul", "--a", "1e" + "1" * 4301, "--b", "1"],
], ids=lambda argv: " ".join(argv)[:60])
def test_a_huge_decimal_exponent_is_refused_at_once(capsys, argv):
    err = assert_refused(capsys, *argv)
    assert f"has an exponent above {LIMIT}, the int-to-str digit limit" in err


@pytest.mark.parametrize("text", [
    "1e4300", "1e-4300", "12.5e4299", "1234e4297", "-1e4300",
    # written digits, which int() itself refuses past the limit
    pytest.param("1" * 4301, id="1x4301"),
    pytest.param("1/" + "1" * 4301, id="1/1x4301"),
    pytest.param("0." + "1" * 4301, id="0.1x4301"),
])
def test_a_term_past_the_digit_limit_is_refused(capsys, text):
    err = assert_refused(capsys, "padic", "valuation", f"--r={text}", "--p", "5")
    assert f"has a numerator or denominator longer than {LIMIT} digits" in err


def test_a_rational_at_the_digit_limit_answers(capsys):
    code, out, err, seconds = run_timed(capsys, "padic", "valuation", "--r", "1e4299", "--p", "2")
    assert (code, err) == (0, "")
    assert out == f"abs=1/{int_text(2**4299)}\nvaluation=4299\n"
    code, out, err, _ = run_timed(capsys, "exact", "mul", "--a=-1e4299*pi", "--b", "1e-4299")
    assert (code, out, err) == (0, "-π\n", "")
    code, out, err, _ = run_timed(capsys, "padic", "ultrametric", "--r", "1e4299", "--s",
                                  "1e-4299", "--p", "5")
    assert (code, out, err) == (0, "true\n", "")


def test_library_calls_take_rationals_of_any_size():
    # past the CLI's bound of 4300 digits, which is the interpreter's default limit
    assert padic_valuation(Fraction("1e5000"), 5) == 5000
    assert PiRational(Fraction(1, 10**60000), 1) * 10**60000 == PiRational(1, 1)


@pytest.mark.parametrize("r, v", [(Fraction(10**50000), 50000), (Fraction(-7, 10**50000), -50000)],
                         ids=["10^50000", "-7/10^50000"])
def test_a_valuation_of_many_digits_answers_fast(r, v):
    start = time.perf_counter()
    assert padic_valuation(r, 5) == v
    assert time.perf_counter() - start < 0.1


#: Every library call that reads a caller's rational, with that rational as x.
TEXT_READERS = {
    "PiRational": PiRational,
    "PI * x": lambda x: PI * x,
    "PI / x": lambda x: PI / x,
    "parse_pi_rational": parse_pi_rational,
    "padic_valuation": lambda x: padic_valuation(x, 5),
    "padic_abs": lambda x: padic_abs(x, 5),
    "ultrametric_check": lambda x: ultrametric_check(x, 1, 5),
    "jones_index": lambda x: jones_index(x, 1),
}


@pytest.mark.parametrize("text, ending", [
    ("1e4400", f"has an exponent above {LIMIT}, the int-to-str digit limit"),
    ("1e10000000", f"has an exponent above {LIMIT}, the int-to-str digit limit"),
    ("2.5E+4400", f"has an exponent above {LIMIT}, the int-to-str digit limit"),
    ("-3E4301", f"has an exponent above {LIMIT}, the int-to-str digit limit"),
    ("3e-4300", f"has a numerator or denominator longer than {LIMIT} digits"),
    ("1" * 4301, f"has a numerator or denominator longer than {LIMIT} digits"),
    ("1/" + "1" * 4301, f"has a numerator or denominator longer than {LIMIT} digits"),
    ("0." + "1" * 4301, f"has a numerator or denominator longer than {LIMIT} digits"),
], ids=["1e4400", "1e10000000", "2.5E+4400", "-3E4301", "3e-4300", "1x4301", "1/1x4301",
        "0.1x4301"])
@pytest.mark.parametrize("call", TEXT_READERS.values(), ids=TEXT_READERS)
def test_a_library_call_reads_text_under_the_digit_limit(call, text, ending):
    start = time.perf_counter()
    with pytest.raises(TooLarge) as raised:
        call(text)
    assert time.perf_counter() - start < 0.1
    assert str(raised.value) == f"{text!r} {ending}"


def test_no_digit_limit_means_no_bound_on_library_text():
    sys.set_int_max_str_digits(0)
    try:
        values = [call("1e4400") for call in TEXT_READERS.values()]
    finally:
        sys.set_int_max_str_digits(LIMIT)
    big = Fraction(10**4400)
    assert values == [PiRational(big), PiRational(big, 1), PiRational(1 / big, 1),
                      PiRational(big), 4400, Fraction(1, 5**4400), True, big]


def test_no_digit_limit_means_no_scalar_bound(capsys):
    sys.set_int_max_str_digits(0)
    try:
        code, out, err, _ = run_timed(capsys, "padic", "valuation", "--r", "1e5000", "--p", "5")
    finally:
        sys.set_int_max_str_digits(LIMIT)
    assert (code, err) == (0, "")
    assert out.endswith("valuation=5000\n")


# -- results: padic jl and padic weylsum --------------------------------------------------


def largest_allowed_exponent(base):
    """The largest e with base^e within RESULT_DIGIT_GUARD digits."""
    return int(RESULT_DIGIT_GUARD / math.log10(base))


def test_the_result_digit_guard_clears_the_tested_sizes():
    # 4772 digits for jl, 14 314 for weylsum at q = 3 and L = 30 000, and the benchmark's
    # huge jl results of about 6000 digits all print.
    assert largest_allowed_exponent(3) > 30_000
    assert largest_allowed_exponent(997) > 2000


def test_jl_result_past_the_guard_is_refused_and_the_largest_answers(capsys):
    j = largest_allowed_exponent(3) + 1  # the result is 2 * 3^(j-1)
    code, out, err, _ = run_timed(capsys, "padic", "jl", "--p", "3", "--cls", f"unram:j={j}")
    assert (code, err) == (0, "")
    assert out == int_text(2 * 3 ** (j - 1)) + "\n"
    err = assert_refused(capsys, "padic", "jl", "--p", "3", "--cls", f"unram:j={j + 1}")
    assert err == ("error: TooLarge: result needs a power of 45001 digits, more than the "
                   "result-digit guard 45000\n")
    assert_refused(capsys, "padic", "jl", "--p", "3", "--cls", "ram:j=1000000")
    with pytest.raises(TooLarge):
        jl_formal_dim(3, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, 10**9))
    # past any float: 3^(10^400 - 1) and 3^(5 * 10^399), counted without a float overflow
    for cls, count in (("unram", "477121254719662"), ("ram", "238560627359831")):
        err = assert_refused(capsys, "padic", "jl", "--p", "3", "--cls", f"{cls}:j=1{'0' * 400}")
        assert re.fullmatch(rf"error: TooLarge: result needs a power of {count}\d{{385}} digits, "
                            r"more than the result-digit guard 45000\n", err)


def test_weyl_sum_past_the_guard_is_refused_and_the_largest_answers(capsys):
    L = largest_allowed_exponent(343)  # cheaper than q = 3 at the same digit count
    assert weyl_partial_sum(343, L) == Fraction(2 * 344, 342) - Fraction(4, 342 * 343**L)
    err = assert_refused(capsys, "padic", "weylsum", "--q", "343", "--max-length", str(L + 1))
    assert err.endswith(f"digits, more than the result-digit guard {RESULT_DIGIT_GUARD}\n")
    assert_refused(capsys, "padic", "weylsum", "--q", "3", "--max-length", "10000000")
    err = assert_refused(capsys, "padic", "weylsum", "--q", "3", "--max-length", f"1{'0' * 400}")
    assert re.fullmatch(r"error: TooLarge: result needs a power of 477121254719662\d{385} "
                        r"digits, more than the result-digit guard 45000\n", err)


@pytest.mark.parametrize("call", [
    lambda: abs_from_valuation(10**400, 5),
    lambda: abs_from_valuation(-(10**400), 5),
    lambda: weyl_partial_sum(3, 10**400),
    lambda: jl_formal_dim(3, JLClass(JLTag.RAMIFIED_CUSPIDAL, 2 * 10**400)),
    lambda: jl_table(3, 10**200),
], ids=["abs_from_valuation", "abs_from_valuation-negative", "weyl_partial_sum",
        "jl_formal_dim", "jl_table"])
def test_a_power_past_any_float_is_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"^(result needs a power|table) of (about )?[1-9]\d{399} "):
        call()
    assert time.perf_counter() - start < 0.1


# -- numbers given to the primality test ------------------------------------------------


def four_thousand_three_hundred_digits_coprime_to_41_primorial():
    n = 10**4299 + 1
    while math.gcd(n, 304250263527210) != 1:  # the product of the primes up to 41
        n += 2
    return n


@pytest.mark.parametrize("argv", [
    ["ff", "orders", "--q", "{n}"],
    ["ff", "repdims", "--q", "{n}"],
    ["padic", "weylsum", "--q", "{n}", "--max-length", "2"],
    ["padic", "quadext", "--p", "{n}"],
    ["padic", "valuation", "--r", "5", "--p", "{n}"],
    ["padic", "jl", "--p", "{n}", "--cls", "special"],
    ["table", "jl:{n}:2"],
], ids=lambda argv: " ".join(argv))
def test_a_4300_digit_q_or_p_is_refused_fast(capsys, argv):
    n = str(four_thousand_three_hundred_digits_coprime_to_41_primorial())
    assert len(n) == 4300
    err = assert_refused(capsys, *(arg.replace("{n}", n) for arg in argv), within=0.5)
    assert err.endswith(f" of 14281 bits exceeds primality guard {PRIME_BITS_GUARD} bits\n")


def test_the_prime_guard_is_a_bit_length():
    assert PRIME_BITS_GUARD == 3200
    # q with no prime factor up to 41: 43^589 has 3197 bits, 43^590 has 3202
    assert PrimePower.from_int(43**589) == PrimePower(43, 589)
    with pytest.raises(TooLarge, match="^q of 3202 bits exceeds primality guard 3200 bits$"):
        PrimePower.from_int(43**590)
    # a small prime factor settles q without a primality test of anything large
    assert PrimePower.from_int(3**4000) == PrimePower(3, 4000)
    # p is checked before it is tested: 3200 bits pass to the test, 3201 bits do not
    with pytest.raises(NotPrime):
        padic_valuation(1, 3 << 3198)
    with pytest.raises(TooLarge, match="^p of 3201 bits exceeds primality guard 3200 bits$"):
        padic_valuation(1, (1 << 3200) + 1)
    # and so is the p of PrimePower(p, f): a prime past the guard is refused untested
    with pytest.raises(NotPrimePower):
        PrimePower(3 << 3198, 1)
    with pytest.raises(TooLarge, match="^p of 3201 bits exceeds primality guard 3200 bits$"):
        PrimePower((1 << 3200) + 1, 1)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^p of 11213 bits exceeds primality guard 3200 bits$"):
        PrimePower(2**11213 - 1, 1)  # a Mersenne prime
    assert time.perf_counter() - start < 0.1
    # is_prime itself stays total
    assert is_prime(10**4299 + 1) is False
    assert quadratic_extension_count(2**2281 - 1) == 3  # a Mersenne prime under the guard


# -- every integer flag of the registry ---------------------------------------------------


def huge_int_flag_runs():
    """Each integer flag (argparse type int) of each well-formed command in test_cli, with
    its value set to each of 10^400, -10^400 and 10^4000, as the argv of a pytest.param."""
    ops = {(op.group, op.verb): op for op in OPERATIONS}
    for argv in WELL_FORMED:
        op = ops.get(tuple(argv[:2]))  # None for a table name
        for param in op.params if op else ():
            if param.options.get("type") is int:
                i = argv.index(param.flag) + 1
                for label, value in (("10^400", 10**400), ("-10^400", -(10**400)),
                                     ("10^4000", 10**4000)):
                    yield pytest.param(argv[:i] + [int_text(value)] + argv[i + 1:],
                                       id=f"{argv[0]} {argv[1]} {param.flag}={label}")


@pytest.mark.parametrize("argv", huge_int_flag_runs())
def test_a_huge_integer_flag_answers_or_is_refused_at_once(capsys, argv):
    code, _, err, seconds = run_timed(capsys, *argv)
    assert code in (0, 2) and "internal error" not in err, err
    assert seconds < 0.5, seconds


# -- table sizes ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, rows", [
    (f"hecke:{TABLE_ROW_GUARD + 3}", TABLE_ROW_GUARD + 1),
    (f"padic:3:{TABLE_ROW_GUARD + 2}", TABLE_ROW_GUARD + 1),
    (f"padic:4:{10**4000}", 10**4000 - 1),
    ("jl:3:6668", 10003),
])
def test_a_table_past_the_row_guard_is_refused(capsys, name, rows):
    err = assert_refused(capsys, "table", name)
    assert err == (f"error: TooLarge: table {name!r} would have up to {rows} rows, more than "
                   f"the table-row guard {TABLE_ROW_GUARD}\n")


def test_tables_at_the_row_guard_answer():
    assert TABLE_ROW_GUARD == 10_000
    assert len(build_table(f"hecke:{TABLE_ROW_GUARD + 2}").rows) == TABLE_ROW_GUARD
    assert len(build_table(f"padic:3:{TABLE_ROW_GUARD + 1}").rows) == TABLE_ROW_GUARD


def jl_table_digits(p, j_max):
    return math.log10(p) * (5 * j_max * j_max // 8)


def test_jl_tables_are_bounded_in_digits(capsys):
    j_max = 1
    while jl_table_digits(3, j_max + 1) <= TABLE_DIGIT_GUARD:
        j_max += 1
    assert j_max > 8  # the benchmark's jl tables stop at jmax = 8
    assert len(build_table(f"jl:3:{j_max}").rows) == 1 + j_max + j_max // 2
    err = assert_refused(capsys, "table", f"jl:3:{j_max + 1}")
    assert err.endswith(f"digits exceeds table-digit guard {TABLE_DIGIT_GUARD}\n")
    # the rows lengthen with p, so a larger p is refused sooner
    assert_refused(capsys, "table", "jl:1000003:1700")


# -- enum-valued flags ---------------------------------------------------------------------


@pytest.mark.parametrize("norm", list(HaarNormalization))
def test_every_normalization_is_a_norm_value(capsys, norm):
    code, out, _, _ = run_timed(capsys, "padic", "haar", "--q", "5", "--norm", norm.value)
    assert (code, out) == (0, render_result(haar_volumes(5, norm), "text", False))


@pytest.mark.parametrize("rep", list(PadicRep))
def test_every_representation_is_a_rep_value(capsys, rep):
    code, out, _, _ = run_timed(capsys, "padic", "vndim", "--q", "3", "--n", "4",
                                "--rep", rep.value)
    assert (code, out) == (0, f"{vn_dimension_padic(3, 4, rep, HaarNormalization.K_ONE)}\n")


@pytest.mark.parametrize("mode", list(GroupMode))
def test_every_group_mode_is_a_mode_value(capsys, mode):
    code, out, _, _ = run_timed(capsys, "fuchsian", "formaldim", "--m", "3", "--mode", mode.value)
    assert (code, out) == (0, f"{formal_dimension_psl(3, mode)}\n")


@pytest.mark.parametrize("flag, verb", [
    ("--norm", ["padic", "haar", "--q", "3"]),
    ("--rep", ["padic", "vndim", "--q", "3", "--n", "4"]),
    ("--mode", ["fuchsian", "formaldim", "--m", "3"]),
])
def test_an_unknown_enum_value_is_a_usage_error(capsys, flag, verb):
    code, out, err, _ = run_timed(capsys, *verb, flag, "bogus")
    assert (code, out) == (1, "")
    assert f"argument {flag}: invalid choice: 'bogus'" in err


def written_number(text):
    """A bound's value as the docs write it: digits grouped by spaces ("45 000"),
    and products of powers written with ^ or ** ("10^4", "2 * 10**6")."""
    value = 1
    for factor in re.split(r"(?<!\*)\*(?!\*)", text.replace("^", "**")):
        base, _, exponent = factor.replace(" ", "").partition("**")
        value *= int(base) ** int(exponent or 1)
    return value


def defined_guards():
    """{name: (module, value)} for every *_GUARD constant in src/."""
    guards = {}
    for path in Path(vndim.__file__).parent.glob("*.py"):
        for name in re.findall(r"^(\w+_GUARD) = ", path.read_text(encoding="utf-8"), re.M):
            guards[name] = (path.stem, getattr(importlib.import_module(f"vndim.{path.stem}"), name))
    assert guards
    return guards


def test_too_large_docstring_lists_every_guard_at_its_value():
    listed = {name: (module, written_number(value)) for module, name, value
              in re.findall(r"\* (\w+)\.(\w+) = ([^:]+):", TooLarge.__doc__)}
    assert listed == defined_guards()


def test_readme_size_bounds_list_every_guard_at_its_value():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (bounds,) = re.findall(r"^\* Size bounds\..*?(?=^\* )", readme, re.S | re.M)
    listed = {name: written_number(value) for name, value
              in re.findall(r"`(\w+_GUARD)` = ([0-9](?:[0-9 ^*]*[0-9])?)", bounds)}
    assert listed == {name: value for name, (_, value) in defined_guards().items()}
