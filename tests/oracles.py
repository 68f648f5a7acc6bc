"""Closed forms and brute-force counts that only the tests use, as independent
checks of the library.

None is part of vndim, and none imports a vndim formula: each restates a
textbook fact in a few lines of plain integer arithmetic, or of a field
model's products that the test passes in, so that a test can compare the
library against it.
"""

import functools
import math
from fractions import Fraction
from itertools import product

from vndim.errors import TooLarge


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


def least_irreducible_by_division(p: int, f: int) -> tuple:
    """The coefficients below x^f, highest first, of the least monic irreducible
    polynomial of degree f over Z/p in lexicographic order: the first candidate
    that no monic polynomial of degree 1 to f/2 divides, each division carried
    out in full and judged by every coefficient left over."""

    def divides(h, g):
        rest = list(g)
        for i in range(len(g) - len(h) + 1):
            c = rest[i] % p
            for j, hj in enumerate(h):
                rest[i + j] -= c * hj
        return all(c % p == 0 for c in rest)

    divisors = [(1,) + h for d in range(1, f // 2 + 1) for h in product(range(p), repeat=d)]
    for tail in product(range(p), repeat=f):
        if not any(divides(h, (1,) + tail) for h in divisors):
            return tail


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


def free_product_histogram(max_length: int) -> dict:
    """{length: count} of the reduced words in the free product of two groups of order
    2, generated by w and w': every string over {w, w'} of length <= max_length, freely
    reduced by cancelling equal neighbours (w w = w' w' = 1), counted once per word."""
    seen = set()
    for k in range(max_length + 1):
        for letters in product(("w", "w'"), repeat=k):
            stack = []
            for letter in letters:
                if stack and stack[-1] == letter:
                    stack.pop()
                else:
                    stack.append(letter)
            seen.add(tuple(stack))
    hist = {}
    for word in seen:
        hist[len(word)] = hist.get(len(word), 0) + 1
    return hist


def check_prime_in_full(p, error, refusal: str = "{} is not prime", bits_guard: int = 3200):
    """The rule for a p that must be prime, with no table of small primes: an int of
    more than bits_guard bits is a TooLarge, then anything but a prime int (a bool is
    not an int) is error(refusal.format(p)).  Primality is decided by trial division,
    so p must be small or have a small factor."""
    if type(p) is int and p.bit_length() > bits_guard:
        raise TooLarge(f"p of {p.bit_length()} bits exceeds primality guard {bits_guard} bits")
    if type(p) is not int or p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise error(refusal.format(p))
