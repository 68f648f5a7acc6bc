"""The closed loop shared by the workloads, and how an operation is judged."""

from __future__ import annotations

import contextlib
import gc
import io
import re
import signal
from fractions import Fraction
from time import perf_counter


class Overrun(BaseException):
    """Raised inside the program when an operation passes its time budget."""


def _on_alarm(signum, frame):
    raise Overrun()


class Outcome:
    """How one operation ended, judged against its expected class."""

    __slots__ = ("ok", "rows", "wrong", "error_class", "reason")

    def __init__(self, ok, rows=0, wrong=False, error_class=None, reason=""):
        self.ok, self.rows, self.wrong = ok, rows, wrong
        self.error_class, self.reason = error_class, reason


class Raw:
    """What the program did: exit code (None if it raised), stdout, stderr, fault."""

    __slots__ = ("code", "out", "err", "fault")

    def __init__(self, code, out="", err="", fault=None):
        self.code, self.out, self.err, self.fault = code, out, err, fault


def run_call(fn, budget_s: float) -> Raw:
    """Call ``fn()`` cut off after budget_s; its return value goes in ``Raw.out``."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        return Raw(0, fn())
    except Overrun:
        return Raw(None, fault=f"over the {budget_s:g} s budget")
    except Exception as exc:  # a traceback is a failed operation, not a crash of the run
        return Raw(None, fault=f"{type(exc).__name__}: {exc}"[:200])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_cli(main, argv, budget_s: float) -> Raw:
    """Call ``main(argv)`` in-process with captured output, under ``run_call``'s budget."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)

    raw = run_call(call, budget_s)
    code = None if raw.fault else raw.out
    return Raw(code, out.getvalue(), err.getvalue(), raw.fault)


_ERROR_CLASS = re.compile(r'(?:error: |"error": ")(\w+)')


def judge_exit2(raw: Raw) -> Outcome:
    """An out-of-domain answer: exit 2, nothing on stdout, no traceback."""
    if raw.fault:
        return Outcome(False, reason=raw.fault)
    if raw.code != 2:
        return Outcome(False, wrong=raw.code == 0, reason=f"exit {raw.code}, expected 2")
    if raw.out or "Traceback" in raw.err or not raw.err:
        return Outcome(False, wrong=True, reason="exit 2 without a clean error message")
    match = _ERROR_CLASS.search(raw.err)
    return Outcome(True, rows=1, error_class=match[1] if match else "unnamed")


#: The reference's time that scaled timings are expressed at: about its time
#: in the slow state of the 2-vCPU Xeon host the benchmark was written on.
REFERENCE_S = 0.014


def host_factor(before: float, after: float) -> float:
    """Scale that brings a time taken between two references to REFERENCE_S speed."""
    return REFERENCE_S / ((before + after) / 2)


def reference() -> float:
    """Wall time of a fixed piece of pure-Python work that does not touch the program.

    It mixes the kinds of work the workloads do (an integer loop, exact
    fractions, building strings, lists and dicts), and it runs with the cyclic
    garbage collector off and keeps little alive, so that the program's heap
    cannot slow it and it does not raise the peak memory.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        x = 0
        for i in range(40_000):
            x = (x * 31 + i) % 1_000_003
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i)
        for _ in range(16):
            table = {f"k{i}": [i, str(i)] for i in range(500)}
        del table
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_loop(workload, seconds: float, recorder=None, limit=None) -> dict:
    """Run rounds of operations until `seconds` pass (or `limit` operations ran).

    A workload with ``whole_rounds`` stops only at the end of a round, so that
    every kind of operation is sampled equally often.  Only the call into the
    program is timed; building an operation's inputs and checking its answer
    are not.  ``reference()`` runs before the first round and after each one,
    whole or not, to gauge the host's speed around it.
    """
    latencies, failed_at, round_times = [], [], []
    wrong = rows = 0
    errors, reasons = {}, []
    references = [reference()]
    started = perf_counter()
    done = False
    for ops in workload.rounds():
        round_time = 0.0
        for op in ops:
            if recorder is not None:
                recorder.begin_op()
            t0 = perf_counter()
            raw = op.call()
            elapsed = perf_counter() - t0
            outcome = op.check(raw)
            latencies.append(elapsed)
            round_time += elapsed
            if outcome.ok:
                rows += outcome.rows
                if outcome.error_class:
                    errors[outcome.error_class] = errors.get(outcome.error_class, 0) + 1
            else:
                failed_at.append(len(latencies) - 1)
                wrong += outcome.wrong
                if len(reasons) < 20:
                    reasons.append(f"{op.label[:120]}: {outcome.reason}")
            if len(latencies) == limit or (not workload.whole_rounds
                                           and perf_counter() - started >= seconds):
                done = True
                break
        references.append(reference())
        if done:
            break
        round_times.append(round_time)
        if perf_counter() - started >= seconds:
            break
    return {
        "attempted": len(latencies), "failed": len(failed_at), "wrong": wrong, "rows": rows,
        "latencies_s": latencies, "failed_at": failed_at,
        "round_times_s": round_times, "busy_s": sum(latencies), "wall_s": perf_counter() - started,
        "errors": errors, "reasons": reasons, "budget_s": workload.budget_s,
        "round_ops": workload.round_ops, "references_s": references,
    }
