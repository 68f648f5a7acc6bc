"""Span recorder for the traced run.

``Recorder.install`` wraps the public functions and classes of every loaded
``vndim`` module by attribute patching, in this process only; the program's
files are not touched.  Every name bound to a wrapped function is re-pointed,
including the copies that ``from ... import`` left in ``cli``, ``padic`` and
``tables``, so a call is traced whichever module it goes through.  Each call
becomes a span (id, parent id, operation id, name, start, end); spans stay in
memory and are written out at the end.  Self time is a span's duration minus
the time its child spans cover.  Every wrapped function has statistics from
the start, so one that is never called reads 0 calls.
"""

from __future__ import annotations

import argparse
import enum
import inspect
import json
import sys
from time import perf_counter

#: Methods traced besides ``__init__`` and the public ones.
_DUNDERS = ("__mul__", "__rmul__", "__truediv__")


def _q_of(q) -> int:
    return getattr(q, "q", q)


#: Work counts taken from a call's arguments and result: name -> (count, fn).
WORK = {
    "finite_field.enumerate_gl2": ("cells", lambda args, res: _q_of(args[0]) ** 4),
    "padic.weyl_enumerate": ("words", lambda args, res: len(res)),
    "tables.build_table": ("rows", lambda args, res: len(res.rows)),
    "cli.render_result": ("bytes", lambda args, res: len(res.encode())),
    "fuchsian.minimal_discrete_series_weight": ("scan_steps", lambda args, res: (res + 1) // 2),
}


class Recorder:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.stats = {}  # name -> [calls, self seconds]
        self.work = {}  # "name.count" -> total
        self.op = 0
        self.prime_args = set()
        self.distinct_primes = 0
        self._stack = []  # [span id, start, child seconds]
        self._next_id = 0
        self._patches = []
        self.modules = []
        self.error_classes = []

    # -- recording -------------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation: later spans carry its id."""
        self.distinct_primes += len(self.prime_args)
        self.prime_args.clear()
        self.op += 1

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans = self._stack, self.spans
        work = WORK.get(name)
        is_prime = name == "finite_field.is_prime"
        if work:
            self.work.setdefault(f"{name}.{work[0]}", 0)
        rec = self

        def traced(*args, **kwargs):
            span_id = rec._next_id
            rec._next_id += 1
            start = perf_counter()
            stack.append([span_id, start, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frame = stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[2]
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                if len(spans) < rec.max_spans:
                    spans.append((span_id, parent, rec.op, name, start, end))
                else:
                    rec.dropped += 1
            if is_prime:
                rec.prime_args.add(args[0])
            if work:
                key = f"{name}.{work[0]}"
                rec.work[key] = rec.work.get(key, 0) + work[1](args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ---------------------------------------------------------------

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self) -> None:
        """Wrap every public function and class of the loaded vndim modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vndim" or name.startswith("vndim.")}
        wrapped = {}  # id(original function) -> wrapper
        self.modules = sorted(modules)
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and issubclass(obj, BaseException):
                    self.error_classes.append(attr)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and getattr(wrapped[id(obj)], "__wrapped__", None) is obj:
                    self._patch(mod, attr, wrapped[id(obj)])
        parse_args = argparse.ArgumentParser.parse_args
        self._patch(argparse.ArgumentParser, "parse_args", self.wrap("cli.parse_args", parse_args))

    def _wrap_class(self, name: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                label = name
            elif attr in _DUNDERS or not attr.startswith("_"):
                label = f"{name}.{attr}"
            else:
                continue
            if isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(label, obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(label, obj))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "ops": self.op,
            "spans": len(self.spans) + self.dropped,
            "spans_dropped": self.dropped,
            "stats": {name: {"calls": c, "self_s": s} for name, (c, s) in self.stats.items()},
            "work": self.work,
            "prime_checks": self.stats.get("finite_field.is_prime", [0])[0],
            "distinct_primes": self.distinct_primes + len(self.prime_args),
            "modules": self.modules,
            "error_classes": self.error_classes,
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines; the first line says what the file holds."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
                "spans": len(self.spans), "dropped": self.dropped,
                "waiting": "none: no layer queues or retries work",
            }) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
