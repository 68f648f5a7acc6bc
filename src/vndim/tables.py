"""Regeneration of the reference tables from first principles.

Nothing here is hard-coded: every cell is recomputed through the library, so
the golden files checked in under tests/ are genuine end-to-end checks of the
formulas.  Rendering is deterministic (fixed row order, LF endings) so table
output is byte-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoSuchLattice, UnknownTable
from .finite_field import as_prime_power
from .fuchsian import FREE_CONGRUENCE_CHAIN, catalog, covolume, vn_dimension
from .padic import (
    HaarNormalization,
    JLClass,
    JLTag,
    PadicRep,
    _check_jl_prime,
    _jl_formal_dim,
    ihara_lattice,
    lattice_covolume,
    vn_dimension_padic,
)


@dataclass
class Table:
    name: str
    columns: tuple
    rows: list


def hecke_table(q_max: int) -> Table:
    """Triangle-group lattices H_q (signature (0; 2, q; 1)) with their covolumes."""
    rows = []
    for q in range(3, q_max + 1):
        sig = catalog(f"H{q}")
        rows.append((f"H{q}", str(sig), covolume(sig)))
    return Table(f"hecke:{q_max}", ("group", "signature", "covolume"), rows)


def free_congruence_table() -> Table:
    """The congruence chain of free lattices with signatures and covolumes."""
    rows = []
    for name, rank in FREE_CONGRUENCE_CHAIN:
        sig = catalog(name)
        rows.append((name, str(sig), rank, covolume(sig)))
    return Table(
        "free-congruence", ("group", "signature", "free_rank", "covolume"), rows
    )


def vn_free_table(m: int) -> Table:
    """Von Neumann dimensions of the parameter-m discrete series over the chain."""
    rows = []
    for name, rank in FREE_CONGRUENCE_CHAIN:
        rows.append((name, rank, vn_dimension(catalog(name), m)))
    return Table(f"vn-free:{m}", ("group", "free_rank", "vn_dim"), rows)


def padic_table(q: int, n_max: int) -> Table:
    """Free lattices in PGL(2,F) up to rank n_max with covolumes (K=1) and the
    von Neumann dimensions of the two computable square-integrable series."""
    pp = as_prime_power(q)
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
    return Table(
        f"padic:{q}:{n_max}",
        ("n", "h", "covolume_k1", "vn_steinberg", "vn_cuspidal"),
        rows,
    )


def jl_table(p: int, j_max: int) -> Table:
    """Formal dimensions of discrete-series classes, Steinberg normalized to 1."""
    _check_jl_prime(p)
    rows = [("special", "-", _jl_formal_dim(p, JLClass(JLTag.GENERALIZED_SPECIAL)))]
    for j in range(1, j_max + 1):
        rows.append(
            ("unram", j, _jl_formal_dim(p, JLClass(JLTag.UNRAMIFIED_CUSPIDAL, j)))
        )
    for j in range(2, j_max + 1, 2):
        rows.append(("ram", j, _jl_formal_dim(p, JLClass(JLTag.RAMIFIED_CUSPIDAL, j))))
    return Table(f"jl:{p}:{j_max}", ("class", "conductor", "formal_dim"), rows)


def build_table(name: str) -> Table:
    """Dispatch "hecke:<qmax>", "free-congruence", "vn-free:<m>", "padic:<q>:<nmax>",
    "jl:<p>:<jmax>" to the matching builder."""
    head, _, params_text = name.partition(":")
    params = params_text.split(":") if params_text else []
    try:
        if head == "hecke" and len(params) == 1:
            q_max = int(params[0])
            if q_max < 3:
                raise UnknownTable(f"hecke table needs qmax >= 3, got {q_max}")
            return hecke_table(q_max)
        if head == "free-congruence" and not params:
            return free_congruence_table()
        if head == "vn-free" and len(params) == 1:
            return vn_free_table(int(params[0]))
        if head == "padic" and len(params) == 2:
            return padic_table(int(params[0]), int(params[1]))
        if head == "jl" and len(params) == 2:
            return jl_table(int(params[0]), int(params[1]))
    except ValueError:
        raise UnknownTable(f"malformed table name {name!r}") from None
    raise UnknownTable(
        f"unknown table {name!r}; valid names: hecke:<qmax>, free-congruence, "
        "vn-free:<m>, padic:<q>:<nmax>, jl:<p>:<jmax>"
    )
