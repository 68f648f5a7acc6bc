"""vndim benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {query-mix,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the program is imported from ``src/``.
Each workload runs single-threaded in one fresh worker process
(``worker.py``), as a closed loop with one client, for ``--seconds``.  Every
answer is checked against closed forms in ``expect.py``.

An *operation* is one query (query-mix) or one part of an oracle sweep
(verify); a *round* is one deck of queries or one full sweep, the same work
in every round.  The host's CPU speed changes by up to 1.8 times, in episodes
of seconds to many minutes, so the wall-clock times of the same code differ
between runs by more than a useful bound.  The timings are therefore given at
a fixed reference speed: ``harness.reference()``, a fixed piece of
pure-Python work that does not touch the program, runs before the first
round and after each round, and each round's latencies are multiplied by
``REFERENCE_S`` over the mean of the two references around the round.
Set-up is process start and imports, which the host's state slows less than
pure-Python work, so set-up times are multiplied by ``BARE_START_S`` over the
median time of a bare interpreter start, which is the same kind of work
without the program.  A change to the program moves these figures as it moves
wall time; a change of the host's speed mostly does not.  The wall-clock values
are printed beside them and kept in the result file.  With ``--trace 0`` the
run reports, with the units that BENCHMARK.json gives them:

* ``setup_s``: median over 20 fresh workers (10 started before the measuring
  one, 10 after it, each followed by a bare interpreter start) of the time
  from process start until the imports are done and the first operation
  could be issued;
* ``peak_rss_mb``: the measuring worker's peak resident memory;
* ``qps``: median over the whole rounds of the operations answered per
  second spent answering them (a failed operation's time is the harness's
  budget, so it is left out);
* ``query_p50_ms``, ``query_p99_ms``: latency percentiles over the
  operations of the whole rounds, a failed operation counting as slower than
  any limit;
* ``sweep_s``: median time of one whole round.

``failed_ratio`` (failed over attempted) is printed with them and carried by
the ``attempted`` and ``failed`` fields of the result line; it is not a
BENCHMARK.json metric because it reads 0 on `verify`.

With ``--trace 1`` a separate traced run wraps every public function of the
program's modules (``spans.py``) and reports the per-layer metrics of
BENCHMARK.json, normalised per operation, together with the tracing
overhead measured against untraced passes over the same operations.  A
metric whose function, module or error class the program no longer has
reads null; one the workload never reaches reads 0.  Spans are written to
``.perfbench-out/``.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``correct`` is false when any answer was wrong or any operation failed.  The
known-bad edge share of query-mix runs outside the timed loop and its outcome
is printed on its own lines, not counted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import host_factor
from worker import READY_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("query-mix", "verify")
#: Set-up samples taken on each side of the measuring worker; spreading them
#: over the run keeps a short slow spell of the host from setting the median.
SETUP_SAMPLES_EACH_SIDE = 10
BARE_SAMPLES = 5
#: The bare interpreter start that ``setup_s`` is given at: about its time in
#: the slow state of the 2-vCPU Xeon host the benchmark was written on.
BARE_START_S = 0.08
#: Slack on top of --seconds before a worker is killed: operation budgets and
#: the traced run's slower traced pass.
WORKER_GRACE_S = 120


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- environment ------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _bare_start_s() -> float:
    """Wall time of one bare interpreter start (site imports included)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


def environment(seed: int, bare: list) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
        "bare_interpreter_start_s": round(statistics.median(bare), 6),
    }


# -- workers ------------------------------------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: bool, probe: bool):
    argv = [sys.executable]
    if trace:
        argv += ["-X", "importtime"]
    argv += [str(HERE / "worker.py"), workload, str(seed), repr(seconds), "1" if trace else "0"]
    if probe:
        argv.append("--probe")
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready_s = perf_counter() - t0
    if line.strip() != "ready":
        _, err = proc.communicate()
        raise BenchError(f"worker did not start: {err.strip()[-400:] or line.strip()}")
    return proc, ready_s


def _finish(proc, timeout: float):
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past {timeout:.0f} s and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-400:]}")
    return out, err


def start_samples(workload: str, setup: list, bare: list) -> None:
    """Time fresh workers to ready, each followed by a bare interpreter start."""
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        proc, ready_s = _spawn(workload, 0, 0, False, probe=True)
        _finish(proc, 60)
        setup.append(ready_s)
        bare.append(_bare_start_s())


# -- metrics ------------------------------------------------------------------------


def percentile(sorted_values: list, fraction: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(fraction * len(sorted_values)) - 1)]


def rounds_of(result: dict, scaled: bool) -> list:
    """Operation latencies by whole round, scaled to the reference speed or not.

    A failed operation reads infinite.  A run too short for a whole round
    counts its operations as one round.
    """
    latencies = list(result["latencies_s"])
    for i in result["failed_at"]:
        latencies[i] = math.inf
    n, refs = result["round_ops"], result["references_s"]
    rounds = [[x * (host_factor(refs[i], refs[i + 1]) if scaled else 1)
               for x in latencies[i * n:(i + 1) * n]] for i in range(len(refs) - 1)]
    return rounds[:len(result["round_times_s"])] or rounds


def answered_rate(latencies: list) -> float:
    """Operations answered per second spent answering them.

    A failed operation's time is the harness's budget, not the program's, so
    it is left out.
    """
    answered = [x for x in latencies if x != math.inf]
    return len(answered) / sum(answered) if answered else 0.0


def end_to_end(result: dict, setup: list, bare: list, scaled: bool = True) -> dict:
    rounds = rounds_of(result, scaled)
    setup_factor = BARE_START_S / statistics.median(bare) if scaled else 1
    latencies = sorted(x for r in rounds for x in r)
    # A failure can only reach a percentile when more than 1 % of operations
    # fail; the budget is then the honest lower bound of that percentile.
    cap = result["budget_s"]
    return {
        "setup_s": statistics.median(setup) * setup_factor,
        "peak_rss_mb": result["peak_rss_mb"],
        "qps": statistics.median(map(answered_rate, rounds)),
        "query_p50_ms": 1000 * min(percentile(latencies, 0.50), cap),
        "query_p99_ms": 1000 * min(percentile(latencies, 0.99), cap),
        "sweep_s": statistics.median(map(sum, rounds)),
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_times(stderr: str) -> dict:
    """Self time in ms of each vndim module imported during set-up, from
    ``-X importtime`` output."""
    times = {}
    for line in stderr.splitlines():
        if line == READY_MARK:
            break
        match = _IMPORT_LINE.match(line)
        if match and match[4].split(".")[0] == "vndim":
            times.setdefault(match[4], int(match[1]) / 1000)
    return times


def per_layer(result: dict, stderr: str) -> dict:
    """Every per-layer quantity the traced run measured, by metric name.

    Every traced function, program module and error class has an entry, 0
    when the workload never reached it.
    """
    trace = result["trace"]
    ops = max(trace["ops"], 1)
    values = {
        "trace.ops": trace["ops"],
        "trace.spans_per_op": trace["spans"] / ops,
        "trace.overhead_pct": 100 * (result["traced_busy_s"] - result["untraced_busy_s"])
        / result["untraced_busy_s"],
        "import.program.ms": 1000 * result["import_s"],
        "finite_field.prime_checks_per_distinct_q":
            trace["prime_checks"] / trace["distinct_primes"] if trace["distinct_primes"] else 0,
    }
    for module in trace["modules"]:
        values[f"import.{module}.self_ms"] = 0.0
    values.update({f"import.{module}.self_ms": ms for module, ms in import_times(stderr).items()})
    layers = {}
    for name, stat in trace["stats"].items():
        values[f"{name}.calls"] = stat["calls"] / ops
        values[f"{name}.self_ms"] = 1000 * stat["self_s"] / ops
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + stat["self_s"]
    for layer, self_s in layers.items():
        values[f"layer.{layer}.self_ms"] = 1000 * self_s / ops
    for key, total in trace["work"].items():
        values[key] = total / ops
    for cls in trace["error_classes"]:
        values[f"errors.{cls}.count"] = 0.0
    for cls, count in result["errors"].items():
        values[f"errors.{cls}.count"] = 1000 * count / ops
    return values


# -- main -----------------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    setup, bare = [], []
    if trace:
        bare = [_bare_start_s() for _ in range(BARE_SAMPLES)]
    else:
        start_samples(workload, setup, bare)
    proc, _ = _spawn(workload, seed, seconds, trace, probe=False)
    out, err = _finish(proc, seconds + WORKER_GRACE_S)
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        start_samples(workload, setup, bare)
    env = environment(seed, bare)
    if trace:
        measured = per_layer(result, err)
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(result, setup, bare)
        wanted = spec["end_to_end"]
    # A name the program no longer has is not measured: null, not 0.
    metrics = {m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    golden_bad = result["checks"].get("golden_mismatches", [])
    known_bad = result["checks"].get("known_bad", [])
    correct = (result["wrong"] == 0 and not golden_bad and result["failed"] == 0
               and not any(probe["wrong"] for probe in known_bad))
    timed = [len(r) for r in rounds_of(result, False)]
    unscaled = {} if trace else end_to_end(result, setup, bare, scaled=False)
    report = {
        "workload": workload, "trace": trace, "environment": env,
        "samples": {"operations": result["attempted"], "rounds": len(result["round_times_s"]),
                    "setup": len(setup), "round_ops": result["round_ops"],
                    "timed_rounds": len(timed), "timed_operations": sum(timed),
                    "beyond_p99": sum(timed) - math.ceil(0.99 * sum(timed))},
        "failed_ratio": result["failed"] / max(result["attempted"], 1),
        "wrong": result["wrong"], "rows": result["rows"],
        "checks": result["checks"], "failures": result["reasons"],
        "errors": result["errors"], "trace_file": result.get("trace_file"),
        "unscaled": unscaled, "latencies_s": result["latencies_s"],
        "round_times_s": result["round_times_s"], "references_s": result["references_s"],
        "setup_samples_s": setup, "bare_samples_s": bare,
    }
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "report": report}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report = outcome.pop("report")
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as out:
        json.dump({**outcome, "report": report}, out, indent=1)
    samples = report["samples"]
    print(f"# environment: {json.dumps(report['environment'])}")
    print(f"# {args.workload}: {samples['operations']} operations in {samples['rounds']} "
          f"rounds of {samples['round_ops']}; timings over {samples['timed_rounds']} whole "
          f"rounds, {samples['timed_operations']} operations, {samples['beyond_p99']} beyond "
          f"p99; {samples['setup']} set-ups; "
          f"failed_ratio {report['failed_ratio']:.4f} "
          f"({outcome['failed']}/{outcome['attempted']}, wrong {report['wrong']})")
    for probe in report["checks"].get("known_bad", []):
        print(f"# known-bad edge, outside the timed loop: {probe['query']}: {probe['outcome']}")
    if args.trace:
        print("# waiting: none recorded; no layer queues or retries work")
    for metric, value in outcome["metrics"].items():
        if value["value"] is None:
            print(f"#   {metric}: not measured, the program has no such name")
        else:
            raw = report["unscaled"].get(metric, value["value"])
            wall = "" if raw == value["value"] else f"  (wall clock: {raw:.6g})"
            print(f"#   {metric} = {value['value']:.6g} {value['unit']}{wall}")
    for reason in report["failures"]:
        print(f"# failed: {reason}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
