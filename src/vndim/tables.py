"""Regeneration of the reference tables from first principles.

Nothing here is hard-coded: every cell is recomputed through the library, so
the golden files checked in under tests/ are genuine end-to-end checks of the
formulas.  Rendering is deterministic (fixed row order, LF endings) so table
output is byte-identical across runs.
"""

from collections import namedtuple

from .errors import NoSuchLattice, TooLarge, UnknownTable, _quote
from .exact import int_text
from .finite_field import _check_int, as_prime_power
from .fuchsian import FREE_CONGRUENCE_CHAIN, catalog, covolume, vn_dimension
from .padic import (
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    _check_jl_prime,
    _jl_formal_dim,
    _power_digits,
    ihara_lattice,
    lattice_covolume,
    vn_dimension_padic,
)


Table = namedtuple("Table", "name columns rows")

#: Table-size guards: build_table refuses a hecke, padic or jl table that would
#: walk more than TABLE_ROW_GUARD rows, and jl_table, whose rows lengthen, a
#: table of more than about TABLE_DIGIT_GUARD digits in all.  A CLI query at
#: either bound takes about 1 s.
TABLE_ROW_GUARD = 10_000
TABLE_DIGIT_GUARD = 2 * 10**6


def hecke_table(q_max: int) -> tuple:
    """Triangle-group lattices H_q (signature (0; 2, q; 1)) with their covolumes."""
    _check_int(q_max, 3, UnknownTable, "hecke table qmax")
    rows = []
    for q in range(3, q_max + 1):
        sig = catalog(f"H{q}")
        rows.append((f"H{q}", str(sig), covolume(sig)))
    return ("group", "signature", "covolume"), rows


def free_congruence_table() -> tuple:
    """The congruence chain of free lattices with signatures and covolumes."""
    rows = []
    for name, rank in FREE_CONGRUENCE_CHAIN:
        sig = catalog(name)
        rows.append((name, str(sig), rank, covolume(sig)))
    return ("group", "signature", "free_rank", "covolume"), rows


def vn_free_table(m: int) -> tuple:
    """Von Neumann dimensions of the parameter-m discrete series over the chain."""
    rows = []
    for name, rank in FREE_CONGRUENCE_CHAIN:
        rows.append((name, rank, vn_dimension(catalog(name), m)))
    return ("group", "free_rank", "vn_dim"), rows


def padic_table(q: int, n_max: int) -> tuple:
    """Free lattices in PGL(2,F) up to rank n_max with covolumes (K=1) and the
    von Neumann dimensions of the two computable square-integrable series."""
    pp = as_prime_power(q)
    _check_int(n_max, None, UnknownTable, "padic table nmax")
    rows = []
    for n in range(2, n_max + 1):
        try:
            lattice = ihara_lattice(pp, n)
        except NoSuchLattice:
            continue
        rows.append(
            (
                n,
                lattice.h,
                lattice_covolume(pp, n, HaarNormalization.K_ONE),
                vn_dimension_padic(pp, n, PadicRep.STEINBERG, HaarNormalization.K_ONE),
                vn_dimension_padic(
                    pp, n, PadicRep.DEPTH_ZERO_CUSPIDAL, HaarNormalization.K_ONE
                ),
            )
        )
    return ("n", "h", "covolume_k1", "vn_steinberg", "vn_cuspidal"), rows


def jl_table(p: int, j_max: int) -> tuple:
    """Formal dimensions of discrete-series classes, Steinberg normalized to 1."""
    _check_jl_prime(p)
    _check_int(j_max, None, UnknownTable, "jl table jmax")
    digits = _power_digits(p, 5 * j_max * j_max // 8)  # about, over every row
    if digits > TABLE_DIGIT_GUARD:
        raise TooLarge(f"table of about {int_text(digits)} digits exceeds table-digit guard "
                       f"{TABLE_DIGIT_GUARD}")
    rows = []
    for tag, conductors in ((JLTag.GENERALIZED_SPECIAL, (0,)),
                            (JLTag.UNRAMIFIED_CUSPIDAL, range(1, j_max + 1)),
                            (JLTag.RAMIFIED_CUSPIDAL, range(2, j_max + 1, 2))):
        label = tag.value
        rows += [(label, j or "-", _jl_formal_dim(p, JLClass(tag, j))) for j in conductors]
    return ("class", "conductor", "formal_dim"), rows


#: Table name head -> (builder, its parameter names, the number of rows it walks
#: for given arguments, or None for a fixed handful).  A builder returns
#: (columns, rows), and build_table names the Table "<head>:<argument>:...".
TABLES = {
    "hecke": (hecke_table, ("qmax",), lambda q_max: q_max - 2),
    "free-congruence": (free_congruence_table, (), None),
    "vn-free": (vn_free_table, ("m",), None),
    "padic": (padic_table, ("q", "nmax"), lambda q, n_max: n_max - 1),
    "jl": (jl_table, ("p", "jmax"), lambda p, j_max: 1 + j_max + j_max // 2),
}

#: The form of every valid table name: its head, then ":<param>" for each parameter.
TABLE_NAMES = tuple(head + "".join(f":<{param}>" for param in params)
                    for head, (_, params, _) in TABLES.items())


def build_table(name: str) -> Table:
    """Build the table that ``name`` names (see TABLES) from its integer parameters;
    TooLarge when it would walk more than TABLE_ROW_GUARD rows."""
    head, _, params_text = name.partition(":") if isinstance(name, str) else ("", "", "")
    params = params_text.split(":") if params_text else []
    if head not in TABLES or len(params) != len(TABLES[head][1]):
        raise UnknownTable(f"unknown table {_quote(name)}; valid names: {', '.join(TABLE_NAMES)}")
    builder, _, size = TABLES[head]
    try:
        args = [int(param) for param in params]
    except ValueError:
        raise UnknownTable(f"malformed table name {_quote(name)}") from None
    if size and size(*args) > TABLE_ROW_GUARD:
        raise TooLarge(f"table {_quote(name)} would have up to {size(*args)} rows, more than "
                       f"the table-row guard {TABLE_ROW_GUARD}")
    # Looked up by name, so that a patched module attribute takes effect here.
    columns, rows = globals()[builder.__name__](*args)
    return Table(head + "".join(f":{arg}" for arg in args), columns, rows)
