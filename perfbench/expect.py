"""Closed forms and output decoders that the benchmark checks answers against.

Nothing here imports ``vndim``: every expected value is computed from the
paper's closed forms written out below, and every output is decoded from the
bytes the program printed.  A decoded answer is compared as a *shape*:

    ("scalar", cell) | ("record", {key: cell}) | ("list", [cell])
    | ("table", (column, ...), [(cell, ...), ...])

and a cell is one of ("n", Fraction, pi_exp), ("b", bool), ("inf",) or
("s", text), so that the text, json and csv renderings of one answer decode
to the same value.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

# -- exact cells ---------------------------------------------------------------

_DIGITS = 4000  # below the interpreter's int/str conversion limit


def big_int(text: str) -> int:
    """int(text) for any length, without touching the interpreter's digit limit."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    return sign * _big_digits(digits)


def _big_digits(digits: str) -> int:
    if len(digits) <= _DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _big_digits(digits[:-half]) * 10**half + _big_digits(digits[-half:])


def N(value, pi_exp: int = 0):
    """Numeric cell: an exact rational times pi^pi_exp."""
    value = Fraction(value)
    return ("n", value, pi_exp if value else 0)


def B(value: bool):
    return ("b", bool(value))


INF = ("inf",)

_INT = re.compile(r"-?\d+")
_FRAC = re.compile(r"(-?\d+)/(\d+)")
_PI_TIMES = re.compile(r"(-?\d+)(?:/(\d+))?\*pi")
_PI_OVER = re.compile(r"(-?\d+)/(?:pi|\((\d+)\*pi\))")
_ASCII_PI = re.compile(r"(?<![A-Za-z_])pi(?![A-Za-z_])")


def cell_text(text: str):
    """Decode one rendered text/csv cell."""
    s = text.replace("π", "pi").replace("·", "*")
    if s in ("true", "false"):
        return B(s == "true")
    if s == "inf":
        return INF
    if s in ("pi", "-pi"):
        return N(-1 if s.startswith("-") else 1, 1)
    if _INT.fullmatch(s):
        return N(big_int(s))
    m = _FRAC.fullmatch(s)
    if m:
        return N(Fraction(big_int(m[1]), big_int(m[2])))
    m = _PI_TIMES.fullmatch(s)
    if m:
        return N(Fraction(big_int(m[1]), big_int(m[2] or "1")), 1)
    m = _PI_OVER.fullmatch(s)
    if m:
        return N(Fraction(big_int(m[1]), big_int(m[2] or "1")), -1)
    return ("s", text)


def cell_json(value):
    """Decode one JSON value; strings go through the text decoder."""
    if isinstance(value, dict) and set(value) == {"num", "den", "pi_exp"}:
        return N(Fraction(value["num"], value["den"]), value["pi_exp"])
    if isinstance(value, bool):
        return B(value)
    if isinstance(value, int):
        return N(value)
    if isinstance(value, str):
        return cell_text(value)
    raise ValueError(f"unexpected JSON value {value!r}")


def S(text: str):
    """Expected cell for a value the program prints as text."""
    return cell_text(text)


# -- decoding a whole answer ---------------------------------------------------


def decode(out: str, fmt: str, kind: str):
    """Decode stdout of one successful query into a shape of the given kind."""
    if not out.endswith("\n") or "\r" in out:
        raise ValueError("output must end in LF and contain no CR")
    if fmt == "json":
        data = json.loads(out, parse_int=big_int, object_pairs_hook=_sorted_object)
        if kind == "scalar":
            return ("scalar", cell_json(data))
        if kind == "record":
            return ("record", {k: cell_json(v) for k, v in data.items()})
        if kind == "list":
            return ("list", [cell_json(v) for v in data])
        if set(data) != {"name", "columns", "rows"}:
            raise ValueError("JSON table must have name, columns and rows")
        return ("table", tuple(data["columns"]),
                [tuple(cell_json(c) for c in row) for row in data["rows"]])
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        header, body = rows[0], rows[1:]
        if kind == "scalar":
            if header != ["value"] or len(body) != 1 or len(body[0]) != 1:
                raise ValueError("csv scalar must be one 'value' cell")
            return ("scalar", cell_text(body[0][0]))
        if kind == "record":
            if len(body) != 1 or header != sorted(header):
                raise ValueError("csv record must be one row under sorted keys")
            return ("record", {k: cell_text(v) for k, v in zip(header, body[0])})
        if kind == "list":
            if header != ["value"]:
                raise ValueError("csv list must have a 'value' column")
            return ("list", [cell_text(r[0]) for r in body])
        return ("table", tuple(header), [tuple(cell_text(c) for c in r) for r in body])
    lines = out[:-1].split("\n")
    if kind == "scalar":
        if len(lines) != 1:
            raise ValueError("text scalar must be one line")
        return ("scalar", cell_text(lines[0]))
    if kind == "record":
        pairs = [line.partition("=") for line in lines]
        keys = [k for k, _, _ in pairs]
        if keys != sorted(keys):
            raise ValueError("text record keys must be sorted")
        return ("record", {k: cell_text(v) for k, _, v in pairs})
    if kind == "list":
        return ("list", [cell_text(line) for line in lines])
    return ("table", tuple(lines[0].split()),
            [tuple(cell_text(c) for c in line.split()) for line in lines[1:]])


def _sorted_object(pairs):
    keys = [k for k, _ in pairs]
    if keys != sorted(keys):
        raise ValueError("JSON keys are not sorted")
    return dict(pairs)


def check_answer(out: str, fmt: str, ascii_pi: bool, expected) -> str | None:
    """None when ``out`` renders ``expected``; otherwise a one-line reason."""
    if ascii_pi and not out.isascii():
        return "non-ASCII output under --ascii"
    if not ascii_pi and fmt != "json" and _ASCII_PI.search(out):
        return "ASCII 'pi' without --ascii"
    try:
        got = decode(out, fmt, expected[0])
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return f"undecodable {fmt} output: {exc}"
    if got != expected:
        return f"wrong answer: got {_short(got)}, expected {_short(expected)}"
    return None


def _short(shape) -> str:
    text = repr(shape)
    return text if len(text) < 160 else text[:157] + "..."


# -- number theory ---------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the 13 prime bases are exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 3) | 1
    while not is_prime(n):
        n += 2
    return n


def valuation(r: Fraction, p: int):
    """p-adic valuation by repeated division; None (infinite) at 0."""
    if r == 0:
        return None
    v, num, den = 0, abs(r.numerator), r.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def p_abs(r: Fraction, p: int) -> Fraction:
    v = valuation(r, p)
    return Fraction(0) if v is None else Fraction(p) ** -v


# -- the paper's closed forms ------------------------------------------------------


def area(genus: int, orders, cusps: int) -> Fraction:
    """2g - 2 + sum(1 - 1/m) + h; the covolume is 2*pi times this."""
    return 2 * genus - 2 + cusps + sum(1 - Fraction(1, m) for m in orders)


def cusp_dim(genus: int, orders, cusps: int, k: int) -> int:
    if k < 0:
        return 0
    if k == 0:
        return 1 if cusps == 0 else 0
    if k == 2:
        return genus
    half = k // 2
    return (k - 1) * (genus - 1) + (half - 1) * cusps + sum(half * (e - 1) // e for e in orders)


def min_weight(genus: int, orders, cusps: int) -> int:
    m = 1
    while cusp_dim(genus, orders, cusps, m + 1) < 1:
        m += 2
    return m


def vol_kz(q: int, norm: str) -> Fraction:
    return {"iwahori1": Fraction(q + 1), "k1": Fraction(1),
            "kq1": Fraction(q + 1), "khalf": Fraction(q - 1, 2)}[norm]


def jl_dim(p: int, tag: str, j: int) -> int:
    if tag == "special":
        return 1
    if tag == "unram":
        return 2 * p ** (j - 1)
    return (p + 1) * p ** ((j - 2) // 2)


def weyl_words(max_length: int) -> list:
    words = ["1"]
    for k in range(1, max_length + 1):
        for first in (0, 1):
            words.append("".join(("w", "w'")[(first + i) % 2] for i in range(k)))
    return words


def weyl_sum(q: int, max_length: int) -> Fraction:
    """2(1 + 2 sum_{k<=L} q^-k) as the full series minus its tail 4/((q-1)q^L)."""
    return Fraction(2 * (q + 1), q - 1) - Fraction(4, (q - 1) * q**max_length)


# -- reference tables --------------------------------------------------------------

CHAIN = (("Gamma0(4)", 2, 3), ("Gamma0(4)capGamma(2)", 3, 4), ("Gamma(4)", 5, 6))


def hecke_rows(q_max: int) -> list:
    return [(S(f"H{q}"), S(f"0;2,{q};1"), N(1 - Fraction(2, q), 1))
            for q in range(3, q_max + 1)]


def free_congruence_rows() -> list:
    return [(S(name), S(f"0;-;{h}"), N(rank), N(2 * area(0, (), h), 1))
            for name, rank, h in CHAIN]


def vn_free_rows(m: int) -> list:
    return [(S(name), N(rank), N(Fraction(m, 2) * area(0, (), h))) for name, rank, h in CHAIN]


def padic_rows(q: int, n_max: int) -> list:
    rows = []
    for n in range(2, n_max + 1):
        h, rem = divmod(2 * (n - 1), q - 1)
        if rem == 0:
            rows.append((N(n), N(h), N(h), N(n - 1), N(2 * (n - 1))))
    return rows


def jl_rows(p: int, j_max: int) -> list:
    rows = [(S("special"), S("-"), N(1))]
    rows += [(S("unram"), N(j), N(jl_dim(p, "unram", j))) for j in range(1, j_max + 1)]
    rows += [(S("ram"), N(j), N(jl_dim(p, "ram", j))) for j in range(2, j_max + 1, 2)]
    return rows


TABLE_COLUMNS = {
    "hecke": ("group", "signature", "covolume"),
    "free-congruence": ("group", "signature", "free_rank", "covolume"),
    "vn-free": ("group", "free_rank", "vn_dim"),
    "padic": ("n", "h", "covolume_k1", "vn_steinberg", "vn_cuspidal"),
    "jl": ("class", "conductor", "formal_dim"),
}


def expected_table(name: str):
    """Expected ("table", columns, rows) for a `vndim table` name."""
    head, _, rest = name.partition(":")
    params = [int(x) for x in rest.split(":")] if rest else []
    rows = {
        "hecke": lambda: hecke_rows(*params),
        "free-congruence": free_congruence_rows,
        "vn-free": lambda: vn_free_rows(*params),
        "padic": lambda: padic_rows(*params),
        "jl": lambda: jl_rows(*params),
    }[head]()
    return ("table", TABLE_COLUMNS[head], rows)
