"""One fresh worker process: import the program, say ready, run one workload.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1> [--probe]

The program is imported from ``src/`` of the checkout this file sits in.  The
worker writes ``ready`` on stdout as soon as its imports are done (the parent
times that as set-up), then, unless ``--probe``, runs the workload as a closed
loop with one client until ``seconds`` have passed and writes one JSON line
with the raw measurements.  With trace 1 it runs ``traced_run`` instead.
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import resource
import sys
from pathlib import Path
from time import perf_counter

from harness import run_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORTS = {"query-mix": "vndim.cli", "verify": "vndim"}
#: Written to stderr once set-up is done; ``-X importtime`` lines after it are
#: not part of the workload's set-up.
READY_MARK = "perfbench: ready"


def import_program(workload: str) -> None:
    sys.path.insert(0, str(SRC))
    # __import__ rather than importlib, so that -X importtime logs these modules too.
    vndim = __import__(IMPORTS[workload])
    if Path(vndim.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"vndim imported from {vndim.__file__}, not from {SRC}")


def load_workload(name: str, seed: int):
    golden_dir = ROOT / "tests" / "golden"
    if name == "query-mix":
        from querymix import QueryMix
        return QueryMix(seed, golden_dir)
    from verifybench import Verify
    return Verify(seed)


def traced_run(workload_name: str, seed: int, seconds: float, workload) -> dict:
    """Untraced, traced and again untraced passes over the same operations.

    The first pass runs whole rounds for a quarter of ``seconds`` and fixes
    the operations; the tracing overhead compares the traced pass with the
    mean of the two untraced ones, so that a drift of the host's speed
    cancels, over the operations that succeeded in all three: a failed
    operation's time is the harness's budget, not work that the tracer slows.
    """
    from spans import Recorder

    # Every program module is loaded, so that a function the workload never
    # calls is traced as 0 calls rather than missing.
    for info in pkgutil.iter_modules(sys.modules["vndim"].__path__):
        importlib.import_module(f"vndim.{info.name}")
    # Whole rounds, so that every kind of operation is traced.
    workload.whole_rounds = True
    before = run_loop(workload, seconds / 4)
    ops = before["attempted"]
    recorder = Recorder()
    recorder.install()
    try:
        result = run_loop(load_workload(workload_name, seed), math.inf, recorder, limit=ops)
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"spans-{workload_name}-{seed}.jsonl"
    recorder.write(trace_path)
    # The spans go before the last pass: kept alive, they would slow its
    # garbage collections and so hide part of the tracing cost.
    del recorder
    after = run_loop(load_workload(workload_name, seed), math.inf, limit=ops)
    runs = (before, result, after)
    failed = {i for run in runs for i in run["failed_at"]}

    def busy(run):
        return sum(t for i, t in enumerate(run["latencies_s"]) if i not in failed)

    result["untraced_busy_s"] = (busy(before) + busy(after)) / 2
    result["traced_busy_s"] = busy(result)
    for key in ("attempted", "failed", "wrong"):
        result[key] = sum(run[key] for run in runs)
    result["trace"] = summary
    result["trace_file"] = str(trace_path.relative_to(ROOT))
    return result


def main(argv) -> int:
    workload_name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    t0 = perf_counter()
    import_program(workload_name)
    import_s = perf_counter() - t0
    print("ready", flush=True)
    print(READY_MARK, file=sys.stderr, flush=True)
    if "--probe" in argv:
        return 0
    workload = load_workload(workload_name, seed)
    workload.prepare()
    if not trace:
        result = run_loop(workload, seconds)
    else:
        result = traced_run(workload_name, seed, seconds, workload)
    result["import_s"] = import_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = workload.checks
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
