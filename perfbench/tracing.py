"""Spans and counters recorded at the package's layer boundaries, from outside.

`installed(tracer)` wraps every public function of the package's layers, and
the validating ``__post_init__`` of its four n-by-n matrix types, with a span
recorder; on exit it puts the original functions back.  The package itself is
not modified: a wrapper replaces each function in every ``protoqubo`` module
namespace that holds it, so calls through ``from .x import f`` are seen too.

Spans live in memory.  A span's self time is its duration minus the
durations of its direct children, so self times partition the time spent
inside the outermost span (`cli.main`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "kernels", "formulations", "qubo", "accel", "density", "medoids")

# Validating constructors of n-by-n matrices: (module, class, field holding the
# matrix).  Each call copies the matrix once, which `matrix_bytes_copied` counts.
VALIDATORS = (
    ("kernels", "KernelMatrix", "entries"),
    ("kernels", "DistanceMatrix", "entries"),
    ("qubo", "QbpInstance", "quadratic"),
    ("qubo", "QuboInstance", "matrix"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span list plus per-name self time, call counts and work counters."""

    spans: list = field(default_factory=list)
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: defaultdict = field(default_factory=lambda: defaultdict(float))
    samples: defaultdict = field(default_factory=lambda: defaultdict(list))
    _open: list = field(default_factory=list)

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def leave(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._open.pop()
        duration = span.end - span.start
        self.self_s[span.name] += duration - span.child_s
        self.calls[span.name] += 1
        if span.parent is not None:
            self.spans[span.parent].child_s += duration


def _count_sa_run(t, a):
    t.counts["accel.sa_run.proposals"] += len(a["flips"])


def _count_solve_sa(t, a):
    from protoqubo.qubo import SaSchedule

    sched = a["schedule"] if a.get("schedule") is not None else SaSchedule()
    # flip indices (int64) and acceptance uniforms (float64), drawn up front per restart
    t.counts["qubo.sa_rng_bytes"] += 16 * sched.sweeps * a["q"].n * sched.restarts


def _count_constrained(t, a):
    t.counts["accel.constrained_best.subsets"] += math.comb(len(a["b"]), int(a["k"]))


def _count_exhaustive(t, a):
    t.counts["accel.exhaustive_best.states"] += 2 ** len(a["Q"])


def _count_export(t, result):
    t.counts["qubo.export_qubo.bytes"] += len(result)


def _count_penalty(t, result):
    t.samples["qubo.sufficient_penalty.value"].append(result)


def _count_ingest(t, result):
    t.counts["cli.ingest_csv.cells"] += result.n * result.d


# Counters that depend only on the arguments run before the call, so calls
# that raise still count; those that read the result run after a return.
BEFORE = {
    "accel.sa_run": _count_sa_run,
    "qubo.solve_sa": _count_solve_sa,
    "accel.constrained_best": _count_constrained,
    "accel.exhaustive_best": _count_exhaustive,
}
AFTER = {
    "qubo.export_qubo": _count_export,
    "qubo.sufficient_penalty": _count_penalty,
    "cli.ingest_csv": _count_ingest,
}


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(tracer, signature.bind(*args, **kwargs).arguments)
        index = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(index)
        if after is not None:
            after(tracer, result)
        return result

    return traced


def _count_copy(attr):
    def before(t, a):
        n = len(getattr(a["self"], attr))
        t.counts["matrix_bytes_copied"] += n * n * 8

    return before


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Record spans for every layer function while the block runs."""
    package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "protoqubo"]
    patches = []

    def replace(original, wrapped):
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapped)

    try:
        for layer in LAYERS:
            module = importlib.import_module(f"protoqubo.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace(fn, _wrap(tracer, name, fn, BEFORE.get(name), AFTER.get(name)))
        for layer, cls_name, attr in VALIDATORS:
            cls = getattr(importlib.import_module(f"protoqubo.{layer}"), cls_name)
            original = cls.__post_init__
            patches.append((cls, "__post_init__", original))
            cls.__post_init__ = _wrap(tracer, f"{layer}.validate", original,
                                     before=_count_copy(attr))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
