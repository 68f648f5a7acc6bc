"""Closed forms and brute-force counts that only the tests use, as independent
checks of the library.

None is part of vndim, and none imports a vndim formula: each restates a
textbook fact in a few lines of plain integer arithmetic, or of a field
model's products that the test passes in, so that a test can compare the
library against it.
"""

import functools
from fractions import Fraction
from itertools import product


def cms_steinberg_check(q: int, n: int = 2) -> Fraction:
    """Independent closed form (1/n) * prod_{k=1..n-1} (q^k - 1) for the Steinberg
    formal degree of GL(n,F) under vol(K.Z/Z) = 1; n = 2 is the case used here."""
    prod = 1
    for k in range(1, n):
        prod *= q**k - 1
    return Fraction(prod, n)


@functools.cache
def sieve_primes(limit: int) -> tuple:
    """The primes below limit, by the sieve of Eratosthenes (no trial division);
    sieved once and shared by every test that reads it."""
    composite = bytearray(limit)
    primes = []
    for n in range(2, limit):
        if not composite[n]:
            primes.append(n)
            composite[n * n::n] = b"\x01" * len(range(n * n, limit, n))
    return tuple(primes)


def graded_ring_dim(weights: tuple, k: int) -> int:
    """dim M_k of a ring of modular forms freely generated in the given weights: the
    number of monomials of weight k in the generators, the coefficient of t^k in
    prod 1/(1 - t^w), built one generator at a time."""
    counts = [1] + [0] * k
    for w in weights:
        for n in range(w, k + 1):
            counts[n] += counts[n - w]
    return counts[k]


def factors_through_norm(q: int, a: int) -> bool:
    """Whether the index-a character of F_{q^2}^x factors through the norm to F_q^x.

    That happens exactly when the character kills the norm kernel, the order
    q+1 subgroup, i.e. when q+1 divides a.
    """
    return a % (q + 1) == 0


def hilbert90_powers(field, q: int) -> set:
    """The set of x^(q^2 - q) over the nonzero x of `field`, a model of F_{q^2}:
    conj(x) = x^q and x^(q^2 - 1) = 1, so each quotient x * conj(x)^-1 is this
    single power of x (Hilbert 90 says they are the elements of norm 1)."""
    return {field.pow(x, q * q - q) for x in range(1, field.order)}


def _mat_mul(x: tuple, y: tuple, n: int) -> tuple:
    """The product of two 2x2 matrices (a, b, c, d) mod n."""
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % n, (a * f + b * h) % n, (c * e + d * g) % n, (c * f + d * h) % n)


def coset_signature(n: int, member) -> tuple:
    """(mu, e2, e3, h, g) of the group of level n >= 2 in PSL(2,Z) whose image mod n
    is the set of x = (a, b, c, d) in PSL(2, Z/n) with member(x) or member(-x).

    PSL(2, Z/n) is enumerated and split into right cosets of that image; S and T
    act on the cosets by right multiplication.  mu is the number of cosets (the
    index), e2 the fixed points of S, e3 the fixed points of ST, h the cycles of
    T, and g = 1 + mu/12 - e2/4 - e3/3 - h/2 the genus.
    """

    def neg(x):
        return tuple(-v % n for v in x)

    def psl(x):  # one representative of {x, -x}
        return min(x, neg(x))

    group = sorted({psl(x) for x in product(range(n), repeat=4)
                    if (x[0] * x[3] - x[1] * x[2]) % n == 1})
    image = [x for x in group if member(x) or member(neg(x))]
    coset_of, reps = {}, []
    for x in group:
        if x not in coset_of:
            for y in image:
                coset_of[psl(_mat_mul(y, x, n))] = len(reps)
            reps.append(x)

    def action(m):
        return [coset_of[psl(_mat_mul(x, m, n))] for x in reps]

    s, t = (0, n - 1, 1, 0), (1, 1, 0, 1)
    mu = len(reps)
    e2 = sum(k == i for i, k in enumerate(action(s)))
    e3 = sum(k == i for i, k in enumerate(action(_mat_mul(s, t, n))))
    t_action, seen, h = action(t), set(), 0
    for i in range(mu):
        if i not in seen:
            h += 1
            while i not in seen:
                seen.add(i)
                i = t_action[i]
    g = 1 + Fraction(mu, 12) - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(h, 2)
    return mu, e2, e3, h, g
