"""Command-line front end: one verb per library operation, plus table regeneration.

Usage shape:

    vndim <group> <verb> [flags] [--format {text,json,csv}] [--ascii]
    vndim table <name>   [--format ...]

Each group and verb is described once, in the ordered registry ``OPERATIONS``;
``build_parser`` walks it and ``main`` runs every verb through one handler.

Exit codes: 0 success, 1 usage error (unknown verb, malformed primitive flag),
2 domain error (NoOccurrence, NoSuchLattice, parity violations, ...).

Exact scalars serialize to JSON as {"num": int, "den": int, "pi_exp": int} and
render to text as "a/b", "a/b·π", "a/(b·π)" (--ascii switches π to "pi" and
the dot to "*").  All output is deterministic: LF line endings, record fields
and JSON keys sorted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import operator
import sys
from collections import namedtuple
from dataclasses import asdict, is_dataclass
from fractions import Fraction

from . import factors, finite_field, fuchsian, padic
from .errors import DomainError
from .exact import PiRational, parse_pi_rational
from .fuchsian import GroupMode, parse_signature
from .padic import HaarNormalization, PadicRep, parse_jl_class
from .tables import Table, build_table


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# -- input parsing -------------------------------------------------------------


def _parse_scalar(text: str) -> PiRational:
    s = text.strip()
    try:
        if s.startswith("{"):
            return PiRational.from_json_dict(json.loads(s))
        return parse_pi_rational(s)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse exact scalar {text!r}: {exc}") from None


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}: {exc}") from None


def _parse_nu(text: str, q) -> int:
    if text == "trivial":
        return 0
    if text == "sign":
        return (finite_field.as_prime_power(q).q - 1) // 2
    try:
        return int(text)
    except ValueError:
        raise DomainError(
            f"--nu must be an integer index, 'trivial', or 'sign'; got {text!r}"
        ) from None


def _parse_jl_class(text: str) -> padic.JLClass:
    try:
        return parse_jl_class(text)
    except ValueError as exc:
        raise DomainError(str(exc)) from None


# -- output rendering ----------------------------------------------------------


def _cell_text(value, ascii_pi: bool) -> str:
    if isinstance(value, PiRational):
        return value.render(ascii_pi)
    if isinstance(value, Fraction):
        return PiRational(value).render(ascii_pi)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return str(value)


def _cell_json(value):
    if isinstance(value, PiRational):
        return value.to_json_dict()
    if isinstance(value, Fraction):
        return PiRational(value).to_json_dict()
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, (bool, int, str)):
        return value
    return str(value)


def _render_table_text(table: Table, ascii_pi: bool) -> str:
    header = [str(c) for c in table.columns]
    body = [[_cell_text(cell, ascii_pi) for cell in row] for row in table.rows]
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = []
    for row in [header] + body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(columns, rows, ascii_pi: bool) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_text(cell, ascii_pi) for cell in row])
    return out.getvalue()


def render_result(result, fmt: str, ascii_pi: bool) -> str:
    """Turn a handler result (scalar, record dict, word list, or Table) into text."""
    if is_dataclass(result) and not isinstance(result, Table):
        result = asdict(result)
    if isinstance(result, Table):
        if fmt == "json":
            payload = {
                "name": result.name,
                "columns": list(result.columns),
                "rows": [[_cell_json(c) for c in row] for row in result.rows],
            }
            return json.dumps(payload, sort_keys=True) + "\n"
        if fmt == "csv":
            return _render_csv(result.columns, result.rows, ascii_pi)
        return _render_table_text(result, ascii_pi)
    if isinstance(result, dict):
        items = sorted(result.items())
        if fmt == "json":
            return json.dumps({k: _cell_json(v) for k, v in items}, sort_keys=True) + "\n"
        if fmt == "csv":
            return _render_csv([k for k, _ in items], [[v for _, v in items]], ascii_pi)
        return "".join(f"{k}={_cell_text(v, ascii_pi)}\n" for k, v in items)
    if isinstance(result, list):
        if fmt == "json":
            return json.dumps([_cell_json(v) for v in result], sort_keys=True) + "\n"
        if fmt == "csv":
            return _render_csv(["value"], [[v] for v in result], ascii_pi)
        return "".join(_cell_text(v, ascii_pi) + "\n" for v in result)
    # scalar
    if fmt == "json":
        return json.dumps(_cell_json(result), sort_keys=True) + "\n"
    if fmt == "csv":
        return _render_csv(["value"], [[result]], ascii_pi)
    return _cell_text(result, ascii_pi) + "\n"


# -- the operation registry ------------------------------------------------------

#: One parameter of an operation: its flag, namespace attribute, argparse
#: keywords, and converter.
Param = namedtuple("Param", "flag dest options convert")


class Kind:
    """How a parameter is declared to argparse and turned into a library argument.

    ``convert(value, args)`` runs after parsing, so that its DomainError exits 2
    while argparse's own ``type=int`` failures stay usage errors (exit 1);
    ``args`` is the whole namespace, which ``--nu`` needs for ``--q``.
    """

    def __init__(self, convert=lambda value, args: value, **options):
        self.convert = convert
        self.options = options

    def __call__(self, flag: str, help: str | None = None) -> Param:
        options = dict(self.options, help=help) if help else self.options
        return Param(flag, flag.lstrip("-").replace("-", "_"), options, self.convert)


INT = Kind(type=int, required=True)
NAME = Kind(required=True)
SCALAR = Kind(lambda text, args: _parse_scalar(text), required=True)
FRACTION = Kind(lambda text, args: _parse_fraction(text), required=True)
SIGNATURE = Kind(lambda text, args: parse_signature(text), required=True)
NU = Kind(lambda text, args: _parse_nu(text, args.q), required=True)
JL_CLASS = Kind(lambda text, args: _parse_jl_class(text), required=True)
MODE = Kind(
    lambda text, args: GroupMode(text), choices=("psl", "sl"), default="psl",
    help="psl: odd parameters only (default); sl: any parameter >= 1",
)
NORM = Kind(
    lambda text, args: HaarNormalization(text),
    choices=("iwahori1", "k1", "kq1", "khalf"), default="k1",
    help="Haar normalization: vol(I.Z/Z)=1, vol(K.Z/Z)=1 (default), q+1, or (q-1)/2",
)
REP = Kind(lambda text, args: PadicRep(text), choices=("steinberg", "cuspidal"),
           default="steinberg")
TABLE_NAME = Kind(help="hecke:<qmax> | free-congruence | vn-free:<m> | "
                  "padic:<q>:<nmax> | jl:<p>:<jmax>")
FORMAT = Kind(choices=("text", "json", "csv"), default="text", help="output format (default: text)")
ASCII = Kind(action="store_true", help="render pi as 'pi' instead of the unicode letter")
#: The flags every operation takes besides its own.
COMMON = (FORMAT("--format"), ASCII("--ascii"))


class Op(namedtuple("Op", "group verb help fn params")):
    """One registry entry: a group, or a verb of the group above it.

    ``fn`` receives the converted parameters positionally, in order.  A group
    entry without ``fn`` holds verbs; one with ``fn`` is itself the operation,
    as ``vndim table <name>`` is.
    """

    def __new__(cls, group: str, verb: str | None, help: str, fn=None, *params: Param):
        return super().__new__(cls, group, verb, help, fn, params)


# Verbs whose results the CLI reshapes rather than prints as the library returns them.


def _compare(a: PiRational, b: PiRational) -> str:
    return {-1: "less", 0: "equal", 1: "greater"}[a.compare(b)]


def _catalog(name: str) -> dict:
    sig = fuchsian.catalog(name)
    return {"signature": str(sig), "covolume": fuchsian.covolume(sig)}


def _valuation(r: Fraction, p: int) -> dict:
    return {"valuation": padic.padic_valuation(r, p), "abs": padic.padic_abs(r, p)}


def _lattice(q: int, n: int) -> dict:
    lattice = padic.ihara_lattice(q, n)
    return {"q": lattice.q.q, "rank": lattice.rank, "h": lattice.h}


def _weyl(max_length: int) -> list:
    return [str(word) for word in padic.weyl_enumerate(max_length)]


OPERATIONS = (
    Op("exact", None, "exact pi-rational scalar arithmetic"),
    Op("exact", "mul", "exact product of two scalars", operator.mul,
       SCALAR("--a", "scalar, e.g. '5/(4*pi)' or JSON"), SCALAR("--b")),
    Op("exact", "compare", "order two like scalars: less/equal/greater", _compare,
       SCALAR("--a"), SCALAR("--b")),
    Op("fuchsian", None, "lattices in PSL(2,R)"),
    Op("fuchsian", "covolume", "Gauss-Bonnet covolume of a signature", fuchsian.covolume,
       SIGNATURE("--sig", 'signature "g;m1,...;h", e.g. "0;-;3"')),
    Op("fuchsian", "cuspdim", "dimension of the weight-k cusp forms", fuchsian.cusp_form_dim,
       SIGNATURE("--sig"), INT("--weight", "even weight k")),
    Op("fuchsian", "mult", "multiplicity of the parameter-m discrete series",
       fuchsian.discrete_series_multiplicity, SIGNATURE("--sig"), INT("--m"), MODE("--mode")),
    Op("fuchsian", "formaldim", "formal dimension m/(4*pi)", fuchsian.formal_dimension_psl,
       INT("--m"), MODE("--mode")),
    Op("fuchsian", "vndim", "von Neumann dimension over the lattice algebra",
       fuchsian.vn_dimension, SIGNATURE("--sig"), INT("--m"), MODE("--mode")),
    Op("fuchsian", "minweight", "smallest occurring discrete-series parameter",
       fuchsian.minimal_discrete_series_weight, SIGNATURE("--sig"), MODE("--mode")),
    Op("fuchsian", "twolattice",
       "dimension of lattice 2's algebra on the series realized over lattice 1",
       fuchsian.two_lattice_vn_dimension, SIGNATURE("--sig1"), SIGNATURE("--sig2"), INT("--m")),
    Op("fuchsian", "catalog", "look up a named group's signature", _catalog,
       NAME("--name", '"H<q>", "Gamma0(4)", "Gamma0(4)capGamma(2)", or "Gamma(4)"')),
    Op("factor", None, "coupling constants and indices of finite factors"),
    Op("factor", "coupling", "coupling constant k/n of M_n on C^n (x) C^k",
       factors.matrix_coupling, INT("--n"), INT("--k")),
    Op("factor", "jones", "subfactor index from two module dimensions", factors.jones_index,
       FRACTION("--sub", "module dimension over the subfactor"),
       FRACTION("--ambient", "module dimension over the ambient factor")),
    Op("factor", "fgindex", "Nielsen-Schreier index between free-group ranks",
       factors.free_group_index, INT("--ambient-rank"), INT("--sub-rank")),
    Op("ff", None, "finite-field structure of GL(2,F_q)"),
    Op("ff", "orders", "orders of GL(2,F_q) and its Borel subgroup", finite_field.group_orders,
       INT("--q")),
    Op("ff", "enumerate", "brute-force matrix counts (q <= 9)", finite_field.enumerate_gl2,
       INT("--q")),
    Op("ff", "isregular", "is the index-a character of F_{q^2}^x regular?",
       finite_field.is_regular, INT("--q"), INT("--a")),
    Op("ff", "countregular", "closed-form regular-character count",
       finite_field.count_regular_characters,
       INT("--q"), NU("--nu", "index mod q-1, or 'trivial'/'sign'")),
    Op("ff", "bruteregular", "enumerated regular-character count (q <= 9)",
       finite_field.brute_force_regular_characters, INT("--q"), NU("--nu")),
    Op("ff", "normtrace", "norm/trace surjectivity and norm kernel (q <= 9)",
       finite_field.norm_trace_facts, INT("--q")),
    Op("ff", "repdims", "dimensions of the basic GL(2,F_q) representations",
       finite_field.finite_rep_dims, INT("--q")),
    Op("padic", None, "PGL(2,F) side: valuations, lattices, dimensions"),
    Op("padic", "valuation", "p-adic valuation and absolute value", _valuation,
       FRACTION("--r", "rational, e.g. 7/25"), INT("--p")),
    Op("padic", "ultrametric", "check |r+s|_p <= max(|r|_p, |s|_p)", padic.ultrametric_check,
       FRACTION("--r"), FRACTION("--s"), INT("--p")),
    Op("padic", "level", "character level arithmetic for a quadratic extension",
       padic.extension_level_arithmetic,
       INT("--n", "level of the base character"), INT("--e", "ramification index, 1 or 2")),
    Op("padic", "quadext", "number of quadratic extensions of Q_p",
       padic.quadratic_extension_count, INT("--p")),
    Op("padic", "weyl", "reduced affine-Weyl words up to a length", _weyl, INT("--max-length")),
    Op("padic", "weylsum", "partial sum 2*sum q^(-l) over lengths <= L", padic.weyl_partial_sum,
       INT("--q"), INT("--max-length")),
    Op("padic", "weylclosed", "closed form 2(q+1)/(q-1) of the full series",
       padic.weyl_closed_form, INT("--q")),
    Op("padic", "haar", "volumes of I.Z/Z and K.Z/Z under a normalization", padic.haar_volumes,
       INT("--q"), NORM("--norm")),
    Op("padic", "steinberg", "Steinberg formal dimension", padic.steinberg_formal_dim,
       INT("--q"), NORM("--norm")),
    Op("padic", "depthzero", "depth-zero cuspidal formal dimension", padic.depth_zero_formal_dim,
       INT("--q"), NORM("--norm")),
    Op("padic", "lattice", "rank-n free lattice data (h double cosets)", _lattice,
       INT("--q"), INT("--n")),
    Op("padic", "covolume", "covolume of the rank-n free lattice", padic.lattice_covolume,
       INT("--q"), INT("--n"), NORM("--norm")),
    Op("padic", "vndim", "von Neumann dimension over the rank-n free lattice",
       padic.vn_dimension_padic, INT("--q"), INT("--n"), REP("--rep"), NORM("--norm")),
    Op("padic", "jl", "formal dimension via the quaternion-side table", padic.jl_formal_dim,
       INT("--p"), JL_CLASS("--cls", "special, unram:j=<n>, or ram:j=<n>")),
    Op("table", None, "regenerate a reference table", build_table, TABLE_NAME("name")),
)


# -- parser construction and dispatch ----------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="vndim",
        description="Exact covolumes, cusp-form dimensions, formal dimensions, and "
        "von Neumann dimensions for lattices in PSL(2,R) and PGL(2,F).",
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    for op in OPERATIONS:
        if op.verb is None:
            p = groups.add_parser(op.group, help=op.help)
            if op.fn is None:  # a group of verbs: they follow it in the registry
                verbs = p.add_subparsers(dest="verb", required=True, metavar="VERB")
                continue
        else:
            p = verbs.add_parser(op.verb, help=op.help)
        p.set_defaults(op=op)
        for param in COMMON + op.params:
            p.add_argument(param.flag, **param.options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    op = args.op
    # The callable is looked up by name at call time, so that a patched module
    # attribute (a test double, perfbench's span recorder) takes effect here
    # exactly as it would for a direct call.
    fn = getattr(sys.modules[op.fn.__module__], op.fn.__name__)
    try:
        result = fn(*(param.convert(getattr(args, param.dest), args) for param in op.params))
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render_result(result, args.format, args.ascii))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
