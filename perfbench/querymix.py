"""The `query-mix` workload: a seeded stream of single CLI queries.

Every query is an argv list for ``vndim.cli.main``, run in-process with stdout
and stderr captured, and carries its expected outcome, computed from the
closed forms in ``expect``:

* ``("ok", shape)``: exit 0 and an answer that decodes to ``shape``;
* ``("domain",)``: exit 2, nothing on stdout, an error message and no
  traceback on stderr (the error class is counted, not checked);
* ``("big", value)``: the known-bad huge-result edge; exit 0 printing the
  integer ``value``, or exit 2 from a documented size guard.

The stream is a sequence of decks, one per round, all drawn from one
``Random`` seeded with the workload seed.  A deck holds every verb ``LEVELS``
times and every out-of-domain kind once (about a tenth of the deck), in a
shuffled order, with the output formats dealt in shuffled cycles.  The sizes
that set a query's cost (q and p, Weyl lengths, the brute-force q) come from a
fixed ladder per verb (``Grid``) that every deck walks once; the seed picks
the values of each size.  So every round, under every seed, costs the same,
and the round times and percentiles move with the program and the host, not
with the draw.

The known-bad edge share (a huge ``padic jl`` result, exit 1 at the seed, and
a 19-digit prime, past the per-query budget in trial division at the seed) is
not in the timed stream, which holds only queries that the program answers:
``known_bad_probe`` runs one of each before the timed loop and the run reports
how each ended, outside the failure count.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from harness import Outcome, judge_exit2, run_cli
from expect import (
    INF,
    B,
    N,
    S,
    area,
    big_int,
    check_answer,
    cusp_dim,
    expected_table,
    jl_dim,
    min_weight,
    next_prime,
    p_abs,
    valuation,
    vol_kz,
    weyl_sum,
    weyl_words,
)

#: In-domain queries of each verb per deck, one per level of its grid.
LEVELS = 4
#: Largest upward nudge, as a share, that the seed gives a grid size.
JITTER = 0.01
#: Largest q or p drawn for in-domain queries.
Q_MAX = 10**12
FORMATS = [(fmt, asc) for fmt in ("text", "json", "csv") for asc in (False, True)]
NORMS = ("iwahori1", "k1", "kq1", "khalf")
SMALL_QS = (3, 5, 7, 9)


class Grid:
    """Cost-setting draws for one query generator: a fixed ladder of sizes.

    Draw k lands on level k mod ``levels``, at the point
    ``(level + offset) / levels`` of [0, 1); each deck draws every level once.
    Generators get evenly spread offsets, so that together their sizes cover
    [0, 1) finely.  A size is nudged up by a seeded share of at most
    ``JITTER``, so the seed picks the value and the ladder fixes the cost.
    """

    def __init__(self, rng: random.Random, index: int, count: int, levels: int):
        self.rng, self.index, self.levels = rng, index, levels
        self.offset, self.count = (index + 0.5) / count, 0

    def unit(self) -> float:
        level = self.count % self.levels
        self.count += 1
        return (level + self.offset) / self.levels

    def log_uniform(self, low: float, high: float) -> int:
        x = math.exp(math.log(low) + self.unit() * (math.log(high) - math.log(low)))
        return int(x * (1 + JITTER * self.rng.random()))

    def prime(self) -> int:
        return next_prime(self.log_uniform(3, Q_MAX))

    def prime_power(self) -> int:
        """Odd prime power of the next size; on one level in five of the
        generators' ladders its exponent is 2, 3 or 4."""
        step = self.index + self.count % self.levels
        target = self.log_uniform(3, Q_MAX)
        if step % 5:
            return next_prime(target)
        f = 2 + step // 5 % 3
        return next_prime(max(3, round(target ** (1 / f)))) ** f

    def small_q(self) -> int:
        """The brute-force oracles' q: each of 3, 5, 7, 9 once per four draws."""
        return SMALL_QS[int(self.unit() * len(SMALL_QS))]


def _signature(rng: random.Random):
    """A random valid signature, drawn like the test suite's `_random_signature`."""
    while True:
        g = rng.randint(0, 4)
        orders = tuple(rng.randint(2, 12) for _ in range(rng.randint(0, 4)))
        h = rng.randint(0, 5)
        if area(g, orders, h) > 0:
            return g, orders, h


def _sig_text(sig) -> str:
    g, orders, h = sig
    return f"{g};{','.join(map(str, orders)) or '-'};{h}"


def _scalar_text(rng: random.Random, value: Fraction, exp: int) -> str:
    """One of the accepted input spellings of value * pi^exp."""
    num, den = value.numerator, value.denominator
    if rng.random() < 0.25:
        return '{"num": %d, "den": %d, "pi_exp": %d}' % (num, den, exp)
    pi, dot = rng.choice([("pi", "*"), ("π", "·")])
    if exp == 0:
        return f"{num}/{den}"
    if exp == 1:
        return f"{num}/{den}{dot}{pi}"
    return f"{num}/({den}{dot}{pi})"


def _rational(rng: random.Random, positive: bool = False) -> Fraction:
    low = 1 if positive else -(10**6)
    return Fraction(rng.randint(low, 10**6), rng.randint(1, 10**6))


def _ok(value, kind: str = "scalar"):
    return ("ok", (kind, value))


def _record(**cells):
    return ("ok", ("record", cells))


def _lattice_n(rng: random.Random, q: int) -> int:
    return 1 + rng.randint(1, 6) * (q - 1) // 2


# -- in-domain verbs: each returns (argv, expected) --------------------------------


def _exact_mul(rng, d):
    ea, eb = rng.choice([(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, -1), (-1, 1)])
    a, b = _rational(rng), _rational(rng)
    argv = ["exact", "mul", "--a=" + _scalar_text(rng, a, ea), "--b=" + _scalar_text(rng, b, eb)]
    return argv, _ok(N(a * b, ea + eb))


def _exact_compare(rng, d):
    e = rng.choice((-1, 0, 1))
    a, b = _rational(rng), _rational(rng)
    if rng.random() < 0.2:
        b = a
    order = "less" if a < b else "greater" if a > b else "equal"
    argv = ["exact", "compare", "--a=" + _scalar_text(rng, a, e), "--b=" + _scalar_text(rng, b, e)]
    return argv, _ok(S(order))


def _fuchsian_covolume(rng, d):
    sig = _signature(rng)
    return ["fuchsian", "covolume", "--sig", _sig_text(sig)], _ok(N(2 * area(*sig), 1))


def _fuchsian_cuspdim(rng, d):
    sig, k = _signature(rng), rng.randrange(-4, 60, 2)
    argv = ["fuchsian", "cuspdim", "--sig", _sig_text(sig), "--weight", str(k)]
    return argv, _ok(N(cusp_dim(*sig, k)))


def _fuchsian_mult(rng, d):
    sig = _signature(rng)
    mode, m = rng.choice(("psl", "sl")), rng.randrange(1, 100, 2)
    argv = ["fuchsian", "mult", "--sig", _sig_text(sig), "--m", str(m), "--mode", mode]
    return argv, _ok(N(cusp_dim(*sig, m + 1)))


def _fuchsian_formaldim(rng, d):
    mode = rng.choice(("psl", "sl"))
    m = rng.randrange(1, 100, 2) if mode == "psl" else rng.randint(1, 99)
    return ["fuchsian", "formaldim", "--m", str(m), "--mode", mode], _ok(N(Fraction(m, 4), -1))


def _fuchsian_vndim(rng, d):
    sig = _signature(rng)
    mode = rng.choice(("psl", "sl"))
    m = rng.randrange(1, 100, 2) if mode == "psl" else rng.randint(1, 99)
    argv = ["fuchsian", "vndim", "--sig", _sig_text(sig), "--m", str(m), "--mode", mode]
    return argv, _ok(N(Fraction(m, 2) * area(*sig)))


def _fuchsian_minweight(rng, d):
    sig = _signature(rng)
    argv = ["fuchsian", "minweight", "--sig", _sig_text(sig), "--mode", rng.choice(("psl", "sl"))]
    return argv, _ok(N(min_weight(*sig)))


def _fuchsian_twolattice(rng, d):
    while True:
        sig1, sig2, m = _signature(rng), _signature(rng), rng.randrange(1, 100, 2)
        if cusp_dim(*sig1, m + 1) >= 1:
            break
    argv = ["fuchsian", "twolattice", "--sig1", _sig_text(sig1), "--sig2", _sig_text(sig2),
            "--m", str(m)]
    return argv, _ok(N(Fraction(m, 2) * area(*sig2)))


def _fuchsian_catalog(rng, d):
    if rng.random() < 0.5:
        q = rng.randint(3, 10**4)
        sig, cov = f"0;2,{q};1", N(1 - Fraction(2, q), 1)
        name = f"H{q}"
    else:
        name, h = rng.choice([("Gamma0(4)", 3), ("Gamma0(4)capGamma(2)", 4), ("Gamma(4)", 6)])
        sig, cov = f"0;-;{h}", N(2 * area(0, (), h), 1)
    return ["fuchsian", "catalog", "--name", name], _record(covolume=cov, signature=S(sig))


def _factor_coupling(rng, d):
    n, k = rng.randint(1, 10**4), rng.randint(1, 10**4)
    return ["factor", "coupling", "--n", str(n), "--k", str(k)], _ok(N(Fraction(k, n)))


def _factor_jones(rng, d):
    a, b = _rational(rng, True), _rational(rng, True)
    return ["factor", "jones", "--sub", str(a), "--ambient", str(b)], _ok(N(a / b))


def _factor_fgindex(rng, d):
    n, e = rng.randint(2, 50), rng.randint(1, 50)
    argv = ["factor", "fgindex", "--ambient-rank", str(n), "--sub-rank", str(1 + e * (n - 1))]
    return argv, _ok(N(e))


def _ff_orders(rng, d):
    q = d.prime_power()
    return ["ff", "orders", "--q", str(q)], _record(
        gl2_order=N((q * q - 1) * (q * q - q)), borel_order=N(q * (q - 1) ** 2),
        borel_index=N(q + 1))


def _ff_enumerate(rng, d):
    q = d.small_q()
    return ["ff", "enumerate", "--q", str(q)], _record(
        counted_order=N((q * q - 1) * (q * q - q)), counted_borel=N(q * (q - 1) ** 2))


def _ff_isregular(rng, d):
    q = d.prime_power()
    a = rng.randrange(q + 1) * (q + 1) if rng.random() < 0.3 else rng.randrange(q * q - 1)
    # theta^q == theta exactly when (q-1)a = 0 mod q^2-1, i.e. when q+1 divides a.
    return ["ff", "isregular", "--q", str(q), "--a", str(a)], _ok(B(a % (q + 1) != 0))


def _regular_count(q: int, nu: int) -> int:
    return q - 1 if (nu % (q - 1)) % 2 == 0 else q + 1


def _ff_countregular(rng, d):
    q = d.prime_power()
    choice = rng.random()
    if choice < 0.2:
        nu_text, nu = "sign", (q - 1) // 2
    elif choice < 0.3:
        nu_text, nu = "trivial", 0
    else:
        nu = rng.randint(-(10**6), 10**6)
        nu_text = str(nu)
    return ["ff", "countregular", "--q", str(q), f"--nu={nu_text}"], _ok(N(_regular_count(q, nu)))


def _ff_bruteregular(rng, d):
    q = d.small_q()
    nu = rng.randrange(q - 1)
    return ["ff", "bruteregular", "--q", str(q), "--nu", str(nu)], _ok(N(_regular_count(q, nu)))


def _ff_normtrace(rng, d):
    q = d.small_q()
    return ["ff", "normtrace", "--q", str(q)], _record(
        norm_kernel_size=N(q + 1), norm_surjective=B(True), trace_surjective=B(True))


def _ff_repdims(rng, d):
    q = d.prime_power()
    return ["ff", "repdims", "--q", str(q)], _record(
        principal_series_dim=N(q + 1), cuspidal_dim=N(q - 1), steinberg_dim=N(q))


def _valuation_query(r: Fraction, p: int):
    v = valuation(r, p)
    return ["padic", "valuation", f"--r={r}", "--p", str(p)], _record(
        valuation=INF if v is None else N(v), abs=N(p_abs(r, p)))


def _padic_valuation(rng, d):
    p = d.prime()
    r = Fraction(rng.randint(-(10**6), 10**6) * p ** rng.randint(0, 3),
                 rng.randint(1, 10**6) * p ** rng.randint(0, 3))
    return _valuation_query(r, p)


def _padic_ultrametric(rng, d):
    p = d.prime()
    r, s = _rational(rng), _rational(rng)
    return ["padic", "ultrametric", f"--r={r}", f"--s={s}", "--p", str(p)], _ok(B(True))


def _padic_level(rng, d):
    n, e = rng.randint(1, 10**6), rng.choice((1, 2))
    return ["padic", "level", "--n", str(n), "--e", str(e)], _record(
        composed_level=N(e * n), trace_ideal_exponent=N(1 + n // e))


def _padic_quadext(rng, d):
    p = d.prime()  # drawn even when p = 2 is used, so the grid keeps its step
    p = 2 if rng.random() < 0.05 else p
    return ["padic", "quadext", "--p", str(p)], _ok(N(7 if p == 2 else 3))


def _padic_weyl(rng, d):
    length = int(d.unit() * 201)
    return ["padic", "weyl", "--max-length", str(length)], _ok(
        [S(w) for w in weyl_words(length)], "list")


def _padic_weylsum(rng, d):
    q, length = d.prime_power(), rng.randint(0, 60)
    argv = ["padic", "weylsum", "--q", str(q), "--max-length", str(length)]
    return argv, _ok(N(weyl_sum(q, length)))


def _padic_weylclosed(rng, d):
    q = d.prime_power()
    return ["padic", "weylclosed", "--q", str(q)], _ok(N(Fraction(2 * (q + 1), q - 1)))


def _padic_haar(rng, d):
    q, norm = d.prime_power(), rng.choice(NORMS)
    kz = vol_kz(q, norm)
    return ["padic", "haar", "--q", str(q), "--norm", norm], _record(
        vol_IZ=N(kz / (q + 1)), vol_KZ=N(kz))


def _padic_steinberg(rng, d):
    q, norm = d.prime_power(), rng.choice(NORMS)
    argv = ["padic", "steinberg", "--q", str(q), "--norm", norm]
    return argv, _ok(N(Fraction(q - 1, 2) / vol_kz(q, norm)))


def _padic_depthzero(rng, d):
    q, norm = d.prime_power(), rng.choice(NORMS)
    argv = ["padic", "depthzero", "--q", str(q), "--norm", norm]
    return argv, _ok(N(Fraction(q - 1) / vol_kz(q, norm)))


def _padic_lattice(rng, d):
    q = d.prime_power()
    n = _lattice_n(rng, q)
    return ["padic", "lattice", "--q", str(q), "--n", str(n)], _record(
        h=N(2 * (n - 1) // (q - 1)), q=N(q), rank=N(n))


def _padic_covolume(rng, d):
    q, norm = d.prime_power(), rng.choice(NORMS)
    n = _lattice_n(rng, q)
    argv = ["padic", "covolume", "--q", str(q), "--n", str(n), "--norm", norm]
    return argv, _ok(N(2 * (n - 1) // (q - 1) * vol_kz(q, norm)))


def _padic_vndim(rng, d):
    q, norm, rep = d.prime_power(), rng.choice(NORMS), rng.choice(("steinberg", "cuspidal"))
    n = _lattice_n(rng, q)
    argv = ["padic", "vndim", "--q", str(q), "--n", str(n), "--rep", rep, "--norm", norm]
    return argv, _ok(N((n - 1) * (1 if rep == "steinberg" else 2)))


def _padic_jl(rng, d):
    p = d.prime()
    tag = rng.choice(("special", "unram", "ram"))
    j = 0 if tag == "special" else rng.randrange(2, 21, 2) if tag == "ram" else rng.randint(1, 20)
    cls = "special" if tag == "special" else f"{tag}:j={j}"
    return ["padic", "jl", "--p", str(p), "--cls", cls], _ok(N(jl_dim(p, tag, j)))


def _small_table(rng, d):
    name = rng.choice([
        "free-congruence",
        f"vn-free:{rng.randrange(1, 100, 2)}",
        f"hecke:{rng.randint(3, 20)}",
        f"padic:{rng.choice((3, 5, 7, 9))}:{rng.randint(2, 20)}",
        f"jl:{rng.choice((3, 5, 7))}:{rng.randint(1, 8)}",
    ])
    return ["table", name], ("ok", expected_table(name))


VERBS = [
    _exact_mul, _exact_compare,
    _fuchsian_covolume, _fuchsian_cuspdim, _fuchsian_mult, _fuchsian_formaldim,
    _fuchsian_vndim, _fuchsian_minweight, _fuchsian_twolattice, _fuchsian_catalog,
    _factor_coupling, _factor_jones, _factor_fgindex,
    _ff_orders, _ff_enumerate, _ff_isregular, _ff_countregular, _ff_bruteregular,
    _ff_normtrace, _ff_repdims,
    _padic_valuation, _padic_ultrametric, _padic_level, _padic_quadext, _padic_weyl,
    _padic_weylsum, _padic_weylclosed, _padic_haar, _padic_steinberg, _padic_depthzero,
    _padic_lattice, _padic_covolume, _padic_vndim, _padic_jl,
    _small_table,
]


# -- out-of-domain queries: each must end in exit 2 ------------------------------------


def _odd_composite(rng, d) -> int:
    """An odd number with two distinct prime factors: neither prime nor a prime power."""
    a, b = rng.sample((3, 5, 7, 11, 13, 17, 19, 23), 2)
    return a * b * (2 * d.log_uniform(1, 10**9) + 1)


def _ood_parity(rng, d):
    verb = rng.choice(("mult", "vndim", "formaldim"))
    argv = ["fuchsian", verb, "--m", str(rng.randrange(2, 100, 2)), "--mode", "psl"]
    if verb != "formaldim":
        argv += ["--sig", _sig_text(_signature(rng))]
    return argv


def _ood_not_prime(rng, d):
    p = str(_odd_composite(rng, d))
    return rng.choice([
        ["padic", "valuation", "--r", "3/5", "--p", p],
        ["padic", "quadext", "--p", p],
        ["padic", "jl", "--p", p, "--cls", "special"],
    ])


def _ood_odd_ramified(rng, d):
    return ["padic", "jl", "--p", str(d.prime()), "--cls", f"ram:j={rng.randrange(1, 40, 2)}"]


def _ood_no_lattice(rng, d):
    q = d.prime_power()
    n = _lattice_n(rng, q) + rng.randint(1, (q - 1) // 2 - 1) if q > 3 else 1
    return ["padic", "lattice", "--q", str(q), "--n", str(n)]


def _ood_non_hyperbolic(rng, d):
    sig = rng.choice(["1;-;0", "0;2,2;1", "0;2,3;0", "0;-;2", "0;3,3;0", "0;2,3,6;0",
                      "0;2,4,4;0", "0;3,3,3;0", "0;2,2,2,2;0", "0;-;1"])
    verb = rng.choice(("covolume", "cuspdim"))
    argv = ["fuchsian", verb, "--sig", sig]
    return argv + ["--weight", "12"] if verb == "cuspdim" else argv


def _ood_odd_weight(rng, d):
    return ["fuchsian", "cuspdim", "--sig", _sig_text(_signature(rng)),
            "--weight", str(rng.randrange(1, 60, 2))]


def _ood_residue(rng, d):
    q = rng.choice([2 * rng.randint(1, 10**6), _odd_composite(rng, d)])
    return ["ff", rng.choice(("orders", "repdims")), "--q", str(q)]


def _ood_too_large(rng, d):
    """A prime far past any brute-force guard: q^4 matrices or q^2 field elements."""
    q = next_prime(d.log_uniform(10**5, 10**7))
    verb = rng.choice(("enumerate", "normtrace", "bruteregular"))
    argv = ["ff", verb, "--q", str(q)]
    return argv + ["--nu", "1"] if verb == "bruteregular" else argv


def _ood_exponents(rng, d):
    a, b = _rational(rng), _rational(rng)
    if rng.random() < 0.5:
        e = rng.choice((1, -1))
        return ["exact", "mul", "--a=" + _scalar_text(rng, a, e), "--b=" + _scalar_text(rng, b, e)]
    return ["exact", "compare", "--a=" + _scalar_text(rng, a, 0), "--b=" + _scalar_text(rng, b, 1)]


def _ood_no_occurrence(rng, d):
    return ["fuchsian", "twolattice", "--sig1", "0;2,3;1",
            "--sig2", _sig_text(_signature(rng)), "--m", str(rng.choice((1, 3, 5, 7, 9)))]


def _ood_unknown(rng, d):
    return rng.choice([
        ["fuchsian", "catalog", "--name", rng.choice(("H2", "NoSuchLattice", "Gamma(5)"))],
        ["table", rng.choice(("nosuch:3", "hecke:2", "padic:3"))],
    ])


def _ood_factor(rng, d):
    return rng.choice([
        ["factor", "coupling", "--n", "0", "--k", str(rng.randint(1, 9))],
        ["factor", "fgindex", "--ambient-rank", "3", "--sub-rank", "4"],
        ["factor", "jones", "--sub", "0", "--ambient", "1/2"],
    ])


def _ood_level(rng, d):
    return rng.choice([
        ["padic", "level", "--n", "3", "--e", str(rng.choice((0, 3, 4)))],
        ["padic", "level", "--n", str(rng.randint(-5, 0)), "--e", "1"],
    ])


def _ood_signature(rng, d):
    return ["fuchsian", "covolume", "--sig=" + rng.choice(("0;1,3;1", "-1;-;5", "0;2;3;1"))]


OUT_OF_DOMAIN = [
    _ood_parity, _ood_not_prime, _ood_odd_ramified, _ood_no_lattice, _ood_non_hyperbolic,
    _ood_odd_weight, _ood_residue, _ood_too_large, _ood_exponents, _ood_no_occurrence,
    _ood_unknown, _ood_factor, _ood_level, _ood_signature,
]


# -- the known-bad edge share -------------------------------------------------------------


def _huge_jl(rng: random.Random, kind: int):
    """A `padic jl` result past 4300 digits: exit 1 (ValueError) at the seed."""
    p, j = [(997, rng.randint(1500, 2000)), (3, rng.randint(9100, 9500))][kind % 2]
    return ["padic", "jl", "--p", str(p), "--cls", f"unram:j={j}"], ("big", 2 * p ** (j - 1))


def _hang_prime(rng: random.Random, kind: int):
    """A 19-digit prime: trial division at the seed runs past the per-query budget."""
    p = next_prime(rng.randint(10**18, 10**19))
    kind %= 4
    if kind == 0:
        return ["ff", "orders", "--q", str(p)], _record(
            gl2_order=N((p * p - 1) * (p * p - p)), borel_order=N(p * (p - 1) ** 2),
            borel_index=N(p + 1))
    if kind == 1:
        return _valuation_query(Fraction(5 * p, 7), p)
    if kind == 2:
        return ["padic", "quadext", "--p", str(p)], _ok(N(3))
    return ["ff", "repdims", "--q", str(p)], _record(
        principal_series_dim=N(p + 1), cuspidal_dim=N(p - 1), steinberg_dim=N(p))


class Query:
    __slots__ = ("argv", "fmt", "ascii", "expected", "known_bad")

    def __init__(self, argv, fmt, ascii_pi, expected, known_bad=False):
        self.argv = argv + ["--format", fmt] + (["--ascii"] if ascii_pi else [])
        self.fmt, self.ascii, self.expected, self.known_bad = fmt, ascii_pi, expected, known_bad


def decks(seed: int):
    """The endless deck sequence for `seed`: one list of queries per round."""
    rng = random.Random(f"query-mix:{seed}")
    grids = {gen: Grid(rng, i, len(VERBS), LEVELS) for i, gen in enumerate(VERBS)}
    grids.update({gen: Grid(rng, i, len(OUT_OF_DOMAIN), 1)
                  for i, gen in enumerate(OUT_OF_DOMAIN)})
    out_of_domain = set(OUT_OF_DOMAIN)
    formats = []
    while True:
        gens = VERBS * LEVELS + OUT_OF_DOMAIN
        rng.shuffle(gens)
        deck = []
        for gen in gens:
            if not formats:
                formats = FORMATS[:]
                rng.shuffle(formats)
            fmt, asc = formats.pop()
            if gen in out_of_domain:
                deck.append(Query(gen(rng, grids[gen]), fmt, asc, ("domain",)))
            else:
                argv, expected = gen(rng, grids[gen])
                deck.append(Query(argv, fmt, asc, expected))
        yield deck


def stream(seed: int):
    """The decks for `seed` as one stream of queries."""
    for deck in decks(seed):
        yield from deck


def known_bad_probe(cli, seed: int, budget_s: float) -> list:
    """Run one query of each known-bad kind; say how each ended.

    A wrong answer among them makes the run's answer incorrect; a failure is
    the known defect and is only reported.
    """
    rng = random.Random(f"query-mix:known-bad:{seed}")
    report = []
    for make in (_huge_jl, _hang_prime):
        argv, expected = make(rng, seed)
        op = _Op(cli, Query(argv, "text", False, expected, known_bad=True), budget_s)
        outcome = op.check(op.call())
        report.append({"query": op.label, "ok": outcome.ok, "wrong": outcome.wrong,
                       "outcome": "answered" if outcome.ok else outcome.reason})
    return report


# -- golden files -------------------------------------------------------------------------


#: Golden file -> table name, for the golden files that hold a table.
GOLDEN_TABLES = {
    "hecke_10.txt": "hecke:10",
    "free_congruence.txt": "free-congruence",
    "vn_free_1.txt": "vn-free:1",
    "vn_free_3.txt": "vn-free:3",
    "vn_free_5.txt": "vn-free:5",
    "vn_free_7.txt": "vn-free:7",
    "padic_3_6.txt": "padic:3:6",
    "jl_3_4.txt": "jl:3:4",
}


def golden_checks(cli, golden_dir) -> dict:
    """Render every table that has a golden file and compare it byte for byte.

    Runs before the timed loop; a mismatch makes the run's answer incorrect.
    """
    mismatches = []
    for filename, name in GOLDEN_TABLES.items():
        raw = run_cli(cli.main, ["table", name], 60.0)
        if raw.code != 0 or raw.out.encode() != (golden_dir / filename).read_bytes():
            mismatches.append(filename)
    return {"golden_files": len(GOLDEN_TABLES), "golden_mismatches": mismatches}


class QueryMix:
    """Closed loop over the query stream; a round is one deck."""

    #: Per-query budget: about five times the slowest correct query at the
    #: seed (about 0.8 s: `padic ultrametric` with p near 10^12).
    budget_s = 4.0
    round_ops = LEVELS * len(VERBS) + len(OUT_OF_DOMAIN)
    whole_rounds = False

    def __init__(self, seed: int, golden_dir):
        self.seed, self.golden_dir = seed, golden_dir
        self.checks = {}
        self.cli = sys.modules["vndim.cli"]

    def prepare(self) -> None:
        self.checks = golden_checks(self.cli, self.golden_dir)
        self.checks["known_bad"] = known_bad_probe(self.cli, self.seed, self.budget_s)

    def rounds(self):
        for deck in decks(self.seed):
            yield [_Op(self.cli, query, self.budget_s) for query in deck]


class _Op:
    __slots__ = ("cli", "query", "budget_s", "label", "known_bad")

    def __init__(self, cli, query: Query, budget_s: float):
        self.cli, self.query, self.budget_s = cli, query, budget_s
        self.label, self.known_bad = " ".join(query.argv)[:120], query.known_bad

    def call(self):
        return run_cli(self.cli.main, self.query.argv, self.budget_s)

    def check(self, raw):
        expected = self.query.expected
        if expected[0] == "domain":
            return judge_exit2(raw)
        if raw.fault:
            return Outcome(False, reason=raw.fault)
        if expected[0] == "big":
            if raw.code == 2 and not raw.out and "Traceback" not in raw.err:
                return Outcome(True, rows=1, error_class=None)
            if raw.code == 0:
                try:
                    ok = big_int(raw.out) == expected[1]
                except ValueError:
                    ok = False
                return Outcome(ok, rows=1, wrong=not ok, reason="" if ok else "wrong huge value")
            return Outcome(False, reason=f"exit {raw.code}")
        if raw.code != 0:
            # Exit 2 refuses a query that has an answer; for the known-bad edge
            # share it is a failure but not a wrong answer.
            return Outcome(False, wrong=raw.code == 2 and not self.known_bad,
                           reason=f"exit {raw.code}: {raw.err[:100]}")
        if "Traceback" in raw.err:
            return Outcome(False, wrong=True, reason="traceback on stderr")
        reason = check_answer(raw.out, self.query.fmt, self.query.ascii, expected[1])
        if reason:
            return Outcome(False, wrong=True, reason=reason)
        shape = expected[1]
        return Outcome(True, rows=len(shape[2]) if shape[0] == "table"
                       else len(shape[1]) if shape[0] == "list" else 1)
