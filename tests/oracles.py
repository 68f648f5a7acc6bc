"""Closed forms that only the tests use, as independent checks of the library.

Neither is part of vndim: each restates a textbook fact in a few lines of
plain integer arithmetic, so that a test can compare the library against it.
"""

from fractions import Fraction


def cms_steinberg_check(q: int, n: int = 2) -> Fraction:
    """Independent closed form (1/n) * prod_{k=1..n-1} (q^k - 1) for the Steinberg
    formal degree of GL(n,F) under vol(K.Z/Z) = 1; n = 2 is the case used here."""
    prod = 1
    for k in range(1, n):
        prod *= q**k - 1
    return Fraction(prod, n)


def factors_through_norm(q: int, a: int) -> bool:
    """Whether the index-a character of F_{q^2}^x factors through the norm to F_q^x.

    That happens exactly when the character kills the norm kernel, the order
    q+1 subgroup, i.e. when q+1 divides a.
    """
    return a % (q + 1) == 0
