"""Worked finite-factor arithmetic: coupling constants, Jones indices, free-group ranks.

Only the numeric shadows of the operator algebras are modeled: a module over a
finite factor is summarized by its von Neumann dimension (coupling constant),
and a subfactor inclusion by the ratio of two such dimensions.  The free-group
bookkeeping is the Nielsen-Schreier formula: an index-e subgroup of the free
group on n generators is free on 1 + e(n-1) generators.
"""

from fractions import Fraction

from .errors import NonPositive, NotFiniteIndex, ZeroSize
from .exact import _fraction
from .finite_field import _check_int


def matrix_coupling(n: int, k: int) -> Fraction:
    """Coupling constant of M_n(C) tensor 1 acting on C^n tensor C^k: exactly k/n.

    Growing k grows the commutant, and the coupling constant grows with it;
    k = n is the perfectly coupled standard form, with constant 1.
    """
    _check_int(n, None, ZeroSize, "n")
    _check_int(k, None, ZeroSize, "k")
    if n < 1 or k < 1:
        raise ZeroSize(f"matrix coupling needs n, k >= 1, got n={n}, k={k}")
    return Fraction(k, n)


def jones_index(dim_sub: Fraction, dim_ambient: Fraction) -> Fraction:
    """Index of a subfactor inclusion from the two coupling constants.

    ``dim_sub`` is the von Neumann dimension of the module over the smaller
    algebra (the larger number), ``dim_ambient`` over the larger algebra; the
    index is their ratio.
    """
    dim_sub, dim_ambient = _fraction(dim_sub), _fraction(dim_ambient)
    if dim_sub <= 0 or dim_ambient <= 0:
        raise NonPositive(
            f"module dimensions must be > 0, got {dim_sub} and {dim_ambient}"
        )
    return dim_sub / dim_ambient


def free_group_index(ambient_rank: int, sub_rank: int) -> int:
    """Subgroup index e with sub_rank = 1 + e(ambient_rank - 1) (Nielsen-Schreier).

    Raises NotFiniteIndex when no such integer e >= 1 exists, i.e. when
    (sub_rank - 1) is not a positive multiple of (ambient_rank - 1).
    """
    _check_int(ambient_rank, None, NotFiniteIndex, "ambient rank")
    _check_int(sub_rank, None, NotFiniteIndex, "subgroup rank")
    if ambient_rank < 2 or sub_rank < 2:
        raise NotFiniteIndex(
            f"free-group ranks must be >= 2, got {ambient_rank} and {sub_rank}"
        )
    e, rem = divmod(sub_rank - 1, ambient_rank - 1)
    if rem != 0 or e < 1:
        raise NotFiniteIndex(
            f"rank-{sub_rank} free group is not a finite-index subgroup of a "
            f"rank-{ambient_rank} one: ({sub_rank}-1)/({ambient_rank}-1) is not a "
            "positive integer"
        )
    return e
