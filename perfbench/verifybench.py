"""The `verify` workload: repeated full sweeps of the paper's finite claims.

A sweep is eleven parts, each one operation of direct library calls:

* ``gl2``: ``enumerate_gl2`` against (q^2-1)(q^2-q) and q(q-1)^2;
* ``fields``: ``norm_trace_facts``, ``hilbert90_count`` and
  ``brute_force_regular_characters`` (every nu) against their closed forms;
* ``weyl``: ``weyl_enumerate`` and ``weyl_length_histogram`` at two seeded
  lengths, and ``weyl_partial_sum`` against the closed form minus its tail;
* ``padic`` (``CHUNKS`` parts): seeded property checks of
  ``padic_valuation``, ``padic_abs`` and ``ultrametric_check``, shaped like
  acceptance criterion 11;
* ``exact`` (``CHUNKS`` parts): seeded ``PiRational`` products.

The oracle parts run for every odd prime power q up to 9, the enumeration
guard at the time the benchmark was written; the set is fixed here so that a
later change of the guard does not change the workload.  Each takes about a
tenth of a sweep.  The seeded parts change size from part to part and sweep
to sweep (each by its own low-discrepancy factor in [0.7, 1.5)), and they are
most of the parts, so the median operation lies inside a continuum of sizes:
on a host whose speed flips between states every few seconds, the median of a
few equal-sized kinds jumps between the states, while the median of a
continuum moves with their mix.  The factors average the same under every
seed, so the sweep's cost does not depend on the seed.
Expected values come from ``expect`` and are computed before the timed call.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from expect import p_abs, valuation, weyl_sum, weyl_words
from harness import Outcome, run_call

ORACLE_QS = (3, 5, 7, 9)
PRIMES = (3, 5, 7)
#: Sizes of the seeded parts at scale 1; each part is scaled by a factor in
#: [0.7, 1.5) (square root of it for the quadratic Weyl part).
CHUNKS = 4
PADIC_PAIRS = 90  # per prime
PRODUCTS = 1110
WEYL_LENGTHS = (78, 162)
WEYL_SUM_MAX = 68
_GOLDEN = (math.sqrt(5) - 1) / 2
EXPONENT_PAIRS = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, -1), (-1, 1)]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))


def _v(r: Fraction, p: int):
    v = valuation(r, p)
    return math.inf if v is None else v


class Verify:
    budget_s = 60.0
    round_ops = 3 + 2 * CHUNKS
    whole_rounds = True

    def __init__(self, seed: int):
        self.seed = seed
        self.ff = sys.modules["vndim.finite_field"]
        self.padic = sys.modules["vndim.padic"]
        self.exact = sys.modules["vndim.exact"]
        self.checks = {}

    def prepare(self) -> None:
        pass

    def rounds(self):
        starts = random.Random(f"verify:{self.seed}")
        phase = [starts.random() for _ in range(1 + 2 * CHUNKS)]
        sweep = 0
        while True:
            rng = random.Random(f"verify:{self.seed}:{sweep}")
            scale = [0.7 + 0.8 * ((x + sweep * _GOLDEN) % 1.0) for x in phase]
            yield ([self._gl2(), self._fields(), self._weyl(rng, math.sqrt(scale[0]))]
                   + [self._padic(rng, x) for x in scale[1:1 + CHUNKS]]
                   + [self._exact(rng, x) for x in scale[1 + CHUNKS:]])
            sweep += 1

    # -- parts: each pairs a timed call with the values it must return ----------

    def _gl2(self):
        ff = self.ff

        def call():
            return [(c.counted_order, c.counted_borel)
                    for c in (ff.enumerate_gl2(q) for q in ORACLE_QS)]

        return _Part("gl2", call, [((q * q - 1) * (q * q - q), q * (q - 1) ** 2)
                                   for q in ORACLE_QS])

    def _fields(self):
        ff = self.ff

        def call():
            out = []
            for q in ORACLE_QS:
                facts = ff.norm_trace_facts(q)
                out.append((facts.norm_surjective, facts.trace_surjective,
                            facts.norm_kernel_size))
                out.append(ff.hilbert90_count(q))
                out.extend(ff.brute_force_regular_characters(q, nu) for nu in range(q - 1))
            return out

        expected = []
        for q in ORACLE_QS:
            expected += [(True, True, q + 1), q + 1]
            expected += [q - 1 if nu % 2 == 0 else q + 1 for nu in range(q - 1)]
        return _Part("fields", call, expected)

    def _weyl(self, rng: random.Random, scale: float):
        padic = self.padic
        lengths = [round(n * scale) + rng.randint(0, 5) for n in WEYL_LENGTHS]
        sum_lengths = range(0, round(WEYL_SUM_MAX * scale))

        def call():
            out = []
            for length in lengths:
                out.append([str(w) for w in padic.weyl_enumerate(length)])
                out.append(padic.weyl_length_histogram(length))
            out.extend(padic.weyl_partial_sum(q, n) for q in PRIMES for n in sum_lengths)
            return out

        expected = []
        for length in lengths:
            expected.append(weyl_words(length))
            expected.append({0: 1, **{k: 2 for k in range(1, length + 1)}})
        expected += [weyl_sum(q, n) for q in PRIMES for n in sum_lengths]
        return _Part("weyl", call, expected)

    def _padic(self, rng: random.Random, scale: float):
        padic = self.padic
        pairs = round(PADIC_PAIRS * scale)
        cases = [(_rational(rng), _rational(rng), p) for p in PRIMES for _ in range(pairs)]

        def call():
            v, a = padic.padic_valuation, padic.padic_abs
            return [(padic.ultrametric_check(r, s, p), v(r, p), v(s, p), v(r * s, p),
                     v(r + s, p), a(r + s, p), a(r, p), a(s, p)) for r, s, p in cases]

        expected = [(True, _v(r, p), _v(s, p), _v(r * s, p), _v(r + s, p), p_abs(r + s, p),
                     p_abs(r, p), p_abs(s, p)) for r, s, p in cases]
        return _Part("padic", call, expected)

    def _exact(self, rng: random.Random, scale: float):
        exact = self.exact
        cases = []
        for _ in range(round(PRODUCTS * scale)):
            (ea, eb), a, b = rng.choice(EXPONENT_PAIRS), _rational(rng), _rational(rng)
            cases.append((a, ea, b, eb))

        def call():
            pi_rational = exact.PiRational
            out = []
            for a, ea, b, eb in cases:
                c = pi_rational(a, ea) * pi_rational(b, eb)
                out.append((c.coeff, c.pi_exp))
            return out

        expected = [(a * b, ea + eb if a * b else 0) for a, ea, b, eb in cases]
        return _Part("exact", call, expected)


class _Part:
    __slots__ = ("label", "call_fn", "expected")

    def __init__(self, label: str, call_fn, expected: list):
        self.label, self.call_fn, self.expected = label, call_fn, expected

    def call(self):
        return run_call(self.call_fn, Verify.budget_s)

    def check(self, raw) -> Outcome:
        if raw.fault:
            return Outcome(False, reason=raw.fault)
        if raw.out != self.expected:
            bad = sum(1 for got, want in zip(raw.out, self.expected) if got != want)
            return Outcome(False, wrong=True,
                           reason=f"{bad or 'some'} of {len(self.expected)} results differ")
        return Outcome(True, rows=len(self.expected))
