"""Command-line front end: one verb per library operation, plus table regeneration.

Usage shape:

    vndim <group> <verb> [flags] [--format {text,json,csv}] [--ascii]
    vndim table <name>   [--format ...]

Each group and verb is described once, in the ordered registry ``OPERATIONS``;
``main`` runs every verb through one handler, and parses with the one parser that
``build_parser`` builds afresh for the deepest node its first two words name.

Exit codes: 0 success, 1 usage error (unknown verb, malformed primitive flag),
2 domain error (NoOccurrence, NoSuchLattice, parity violations, ...), 3 internal
error (a fault of the program, reported as "internal error: <Type>: <message>").

Exact scalars serialize to JSON as {"num": int, "den": int, "pi_exp": int} and
render to text as "a/b", "a/b·π", "a/(b·π)" (--ascii switches π to "pi" and
the dot to "*").  Text and csv print integers of any length exactly; JSON
output refuses an integer longer than the interpreter's int-to-str limit
(4300 digits by default) with TooLarge, and so does a rational or scalar flag,
as int() does an integer flag.  All output is deterministic: LF line endings,
record fields and JSON keys sorted.  A csv cell is quoted, as the csv module's
minimal quoting does, when it holds '"', ',' or a newline, each '"' inside it
doubled; a row of one empty cell prints as "".
"""

import argparse
import functools
import json
import math
import operator
import shutil
import sys
from collections import namedtuple
from fractions import Fraction

from . import factors, finite_field, fuchsian, padic
from .errors import DomainError, TooLarge, _quote
from .exact import PiRational, _fraction, int_text, parse_pi_rational
from .fuchsian import GroupMode, parse_signature
from .padic import HaarNormalization, PadicRep, parse_jl_class
from .tables import TABLE_NAMES, Table, build_table


# -- input parsing -------------------------------------------------------------


def _scalar(text: str) -> PiRational:
    if text.startswith("{"):
        return PiRational.from_json_dict(json.loads(text))
    return parse_pi_rational(text)


def _exact(parse, what: str):
    """The converter of flag text through ``parse``: a DomainError for malformed text."""

    def convert(text: str, args):
        try:
            return parse(text.strip())
        except (ValueError, KeyError, TypeError) as exc:
            raise DomainError(f"cannot parse {what} {_quote(text)}: {exc}") from None

    return convert


def _parse_nu(text: str, q) -> int:
    if text == "trivial":
        return 0
    if text == "sign":
        return (q - 1) // 2  # q itself is validated by the library call
    try:
        return int(text)
    except ValueError:
        raise DomainError(
            f"--nu must be an integer index, 'trivial', or 'sign'; got {_quote(text)}"
        ) from None


# -- output rendering ----------------------------------------------------------


def _cell(value, fmt: str, ascii_pi: bool):
    """One value as a text cell, or as a JSON value when ``fmt`` is "json"."""
    if isinstance(value, Fraction):
        value = PiRational(value)
    if isinstance(value, PiRational):
        return value.to_json_dict() if fmt == "json" else value.render(ascii_pi)
    if isinstance(value, float) and math.isinf(value):
        return "inf"  # the valuation of zero
    if fmt == "json":
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return int_text(value) if isinstance(value, int) else str(value)


def _csv_cell(cell: str) -> str:
    if '"' in cell or "," in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def render_result(result, fmt: str, ascii_pi: bool) -> str:
    """Turn a handler result (scalar, record, word list, or Table) into text.

    A word list or a scalar is one flat "value" column, with no row container
    per word; a record (a dict or a namedtuple; the library returns no other
    tuple) is one row of its sorted fields, and a Table its own rows."""
    if isinstance(result, tuple) and not isinstance(result, Table):
        result = result._asdict()
    if not isinstance(result, (Table, dict)):
        words = isinstance(result, list)  # padic weyl's texts, or weyl_enumerate's words
        column = list(map(str, result)) if words else [_cell(result, fmt, ascii_pi)]
        if fmt == "json":
            return _json_text(column if words else column[0])
        if fmt == "csv":
            column = ["value"] + [_csv_cell(cell) or '""' for cell in column]
        return "\n".join(column + [""])  # one join: no second copy of each cell
    if isinstance(result, Table):
        columns, rows = list(result.columns), result.rows
    else:
        columns = sorted(result)
        rows = [[result[key] for key in columns]]
    cells = [[_cell(value, fmt, ascii_pi) for value in row] for row in rows]
    if fmt == "csv":
        return "".join((",".join(map(_csv_cell, row)) or '""') + "\n" for row in [columns] + cells)
    if isinstance(result, dict):
        if fmt == "text":
            return "".join(f"{key}={cell}\n" for key, cell in zip(columns, cells[0]))
        return _json_text(dict(zip(columns, cells[0])))
    if fmt == "text":  # aligned columns under a header
        widths = [max(map(len, column)) for column in zip(columns, *cells)]
        return "".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
                       for row in [columns] + cells)
    return _json_text({"name": result.name, "columns": columns, "rows": cells})


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, sort_keys=True) + "\n"
    except ValueError:  # the only one json.dumps raises here: an int past the digit limit
        raise TooLarge(
            f"result has an integer longer than {sys.get_int_max_str_digits()} digits, "
            "the longest that JSON output carries; use --format text or csv"
        ) from None


# -- the operation registry ------------------------------------------------------

#: One parameter of an operation: its flag, namespace attribute, argparse
#: keywords, and converter.
Param = namedtuple("Param", "flag dest options convert")


def Kind(convert=lambda value, args: value, **options):
    """How a parameter is declared to argparse and turned into a library argument.

    ``convert(value, args)`` runs after parsing, so that its DomainError exits 2
    while argparse's own ``type=int`` failures stay usage errors (exit 1);
    ``args`` is the whole namespace, which ``--nu`` needs for ``--q``.
    """

    def param(flag: str, help: str | None = None) -> Param:
        flag_options = dict(options, help=help) if help else options
        return Param(flag, flag.lstrip("-").replace("-", "_"), flag_options, convert)

    return param


def _choice(default, **options):
    """A flag taking the value of a member of ``default``'s enum, listed in their order."""
    values = type(default)
    return Kind(lambda text, args: values(text), choices=[m.value for m in values],
                default=default, **options)


INT = Kind(type=int, required=True)
NAME = Kind(required=True)
SCALAR = Kind(_exact(_scalar, "exact scalar"), required=True)
FRACTION = Kind(_exact(_fraction, "rational"), required=True)
SIGNATURE = Kind(lambda text, args: parse_signature(text), required=True)
NU = Kind(lambda text, args: _parse_nu(text, args.q), required=True)
JL_CLASS = Kind(_exact(parse_jl_class, "class"), required=True)
MODE = _choice(GroupMode.PSL2R, help="psl: odd parameters only (default); sl: any parameter >= 1")
NORM = _choice(HaarNormalization.K_ONE,
               help="Haar normalization: vol(I.Z/Z)=1, vol(K.Z/Z)=1 (default), q+1, or (q-1)/2")
REP = _choice(PadicRep.STEINBERG)
TABLE_NAME = Kind(help=" | ".join(TABLE_NAMES))
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
    v = padic.padic_valuation(r, p)  # tests p once for both entries
    return {"valuation": v, "abs": padic._abs_from_valuation(v, p)}


def _lattice(q: int, n: int) -> dict:
    lattice = padic.ihara_lattice(q, n)
    return {"q": lattice.q.q, "rank": lattice.rank, "h": lattice.h}


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
    Op("ff", "enumerate",
       f"brute-force matrix counts (q <= {math.isqrt(finite_field.FIELD_GUARD)})",
       finite_field.enumerate_gl2, INT("--q")),
    Op("ff", "isregular", "is the index-a character of F_{q^2}^x regular?",
       finite_field.is_regular, INT("--q"), INT("--a")),
    Op("ff", "countregular", "closed-form regular-character count",
       finite_field.count_regular_characters,
       INT("--q"), NU("--nu", "index mod q-1, or 'trivial'/'sign'")),
    Op("ff", "bruteregular",
       f"enumerated regular-character count (q <= {math.isqrt(finite_field.FIELD_GUARD)})",
       finite_field.brute_force_regular_characters, INT("--q"), NU("--nu")),
    Op("ff", "normtrace",
       f"norm/trace surjectivity and norm kernel (q <= {math.isqrt(finite_field.FIELD_GUARD)})",
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
    Op("padic", "weyl", "reduced affine-Weyl words up to a length", padic.weyl_texts,
       INT("--max-length")),
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


#: Each registry entry by its (group, verb) words; a group's verb is None.
_NODES = {(op.group, op.verb): op for op in OPERATIONS}


def build_parser(*words: str) -> tuple[argparse.ArgumentParser, int]:
    """The parser the whole tree holds for the deepest node that the opening ``words`` name,
    and how many words it consumes: 2 for a verb, 1 for ``table`` or a group, 0 for the root."""
    node = _NODES.get(words[:2]) or _NODES.get(words[:1] + (None,))
    depth = 0 if node is None else 2 if node.verb else 1
    # A stock HelpFormatter looks the terminal up itself, and argparse makes one per flag.
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog=" ".join(("vndim",) + words[:depth]), description=(
        None if node else "Exact covolumes, cusp-form dimensions, formal dimensions, and "
        "von Neumann dimensions for lattices in PSL(2,R) and PGL(2,F)."), formatter_class=formatter)
    _fill(parser, node)
    return parser, depth


def _fill(parser: argparse.ArgumentParser, node: Op | None) -> None:
    """Give ``parser`` the flags of operation ``node``, or its children as subcommands
    that format their help as it does."""
    if node and node.fn:
        parser.set_defaults(op=node)
        for param in COMMON + node.params:
            parser.add_argument(param.flag, **param.options)
        return
    children = parser.add_subparsers(required=True, metavar="VERB" if node else "GROUP")
    for op in OPERATIONS:  # a group's verbs, or the root's groups
        if (op.group == node.group and op.verb) if node else op.verb is None:
            _fill(children.add_parser(op.verb or op.group, help=op.help,
                                      formatter_class=parser.formatter_class), op)


def _refuse(message: str):
    raise argparse.ArgumentError(None, message)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, depth = build_parser(*argv[:2])
    if depth:  # a usage error is left to the whole tree, to word as the nested parsers do
        parser.error = _refuse  # (words left over are refused in the root's usage)
    try:
        try:
            args = parser.parse_args(argv[depth:])
        except argparse.ArgumentError:
            args = build_parser()[0].parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; the CLI contract wants 1
        return 1 if exc.code else 0
    op = args.op
    # The callable is looked up by name at call time, so that a patched module
    # attribute (a test double, perfbench's span recorder) takes effect here
    # exactly as it would for a direct call.
    fn = getattr(sys.modules[op.fn.__module__], op.fn.__name__)
    try:
        result = fn(*(param.convert(getattr(args, param.dest), args) for param in op.params))
        text = render_result(result, args.format, args.ascii)
    except Exception as exc:  # a DomainError is the input's fault (exit 2), any other the program's
        prefix = "" if isinstance(exc, DomainError) else "internal "
        print(f"{prefix}error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if prefix else 2
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
