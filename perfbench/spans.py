"""Spans around calls into gridpcr's modules, recorded from outside them.

``Tracer.install`` replaces each traced function under every name it has in
a ``gridpcr`` module's namespace. Module globals are looked up at call time,
so calls inside the package (``run_replicate`` -> ``generate_dataset``,
``resampling`` -> ``decomp._eig_from_scores``) are caught too, and no
program file changes. Spans stay in memory until the run ends.

A span's parent is the innermost open span on its thread. A span opened on
a pool worker, whose own stack is empty, gets the innermost open
``util.run_indexed`` span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time

POOL = "util.run_indexed"


def _shape(value):
    return getattr(getattr(value, "functions", value), "shape", ())


def _gram_attrs(args, result):
    n_funcs, width = _shape(args["basis"])
    return {"flops": 2 * n_funcs * n_funcs * width}


def _project_attrs(args, result):
    n_funcs, width = _shape(args["basis"])
    return {"bytes": 8 * (_shape(args["sample"])[0] + n_funcs) * width}


def _bootstrap_attrs(args, result):
    return {"attempted": args["spec"].b_reps, "failed": len(result.failures)}


def _jackknife_attrs(args, result):
    return {"attempted": args["spec"].r, "failed": 0}


# (module, function) -> hook computing counted sizes from the bound
# arguments and the result, or None.
TARGETS = {
    ("storage", "read_grid"): lambda args, result: {"bytes": result.nbytes},
    ("bases", "bspline_tensor_basis"): None,
    ("space", "gram"): _gram_attrs,
    ("space", "whiten"): None,
    ("space", "project_scores"): _project_attrs,
    ("decomp", "fit_subspace_pca"): None,
    ("decomp", "diagnose_projection"): None,
    ("decomp", "component_scores"): None,
    ("decomp", "centered_scores"): None,
    ("decomp", "_eig_from_scores"): None,
    ("regression", "plugin_cov"): None,
    ("regression", "fit_pcr"): None,
    ("regression", "fit_precision"): None,
    ("resampling", "bootstrap_theta"): _bootstrap_attrs,
    ("resampling", "block_jackknife"): _jackknife_attrs,
    ("simulate", "generate_dataset"): None,
    ("simulate", "make_family"): None,
    ("simulate", "run_replicate"): None,
    ("util", "run_indexed"): None,
}


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "cpu", "attrs", "failed")

    def __init__(self, id, parent, name, thread, start, end, cpu=None, attrs=None, failed=False):
        self.id = id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.cpu = cpu
        self.attrs = attrs or {}
        self.failed = failed


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._open_pools = []
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            if stack:
                parent = stack[-1].id
            else:
                parent = self._open_pools[-1].id if self._open_pools else None
            span = Span(self._next_id, parent, name, threading.get_ident(), 0.0, 0.0)
            if name == POOL:
                self._open_pools.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, failed: bool = False) -> None:
        span.end = time.perf_counter()
        span.failed = failed
        self._stack().pop()
        with self._lock:
            if span in self._open_pools:
                self._open_pools.remove(span)
            self.spans.append(span)

    def call(self, name, fn, hook, signature, args, kwargs, with_cpu):
        span = self.open(name)
        cpu0 = time.process_time() if with_cpu else None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, failed=True)
            raise
        if with_cpu:
            span.cpu = time.process_time() - cpu0
        self.close(span)
        if hook is not None:
            span.attrs = hook(signature.bind(*args, **kwargs).arguments, result)
        return result

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn) if hook is not None else None
        with_cpu = name == POOL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, hook, signature, args, kwargs, with_cpu)

        return traced

    def install(self) -> None:
        """Wrap every target under each name bound to it in gridpcr's modules."""
        modules = [m for k, m in list(sys.modules.items()) if k == "gridpcr" or k.startswith("gridpcr.")]
        for (module, func), hook in TARGETS.items():
            original = getattr(importlib.import_module(f"gridpcr.{module}"), func)
            wrapper = self.wrap(f"{module}.{func}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _children(spans) -> dict:
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals (clipped to it)."""
    kids = _children(spans)
    out = {}
    for s in spans:
        covered = _union(
            (max(c.start, s.start), min(c.end, s.end))
            for c in kids.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out


def busy_time(span: Span, spans) -> float:
    """Worker time covered by a span's children: the per-thread unions, summed."""
    per_thread = {}
    for c in spans:
        if c.parent == span.id:
            per_thread.setdefault(c.thread, []).append((c.start, c.end))
    return sum(_union(v) for v in per_thread.values())


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def iteration_summary(spans) -> dict:
    """Per-function totals of one iteration's spans.

    Returns name -> {calls, self_s, wall_s, durations, failed, busy_s, cpu_s,
    and each counted size summed over calls}.
    """
    own = self_times(spans)
    out = {}
    for s in spans:
        entry = out.setdefault(
            s.name,
            {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "durations": [], "failed": 0,
             "busy_s": 0.0, "cpu_s": 0.0},
        )
        entry["calls"] += 1
        entry["self_s"] += own[s.id]
        entry["wall_s"] += s.end - s.start
        entry["durations"].append(s.end - s.start)
        entry["failed"] += int(s.failed)
        if s.name == POOL:
            entry["busy_s"] += busy_time(s, spans)
        if s.cpu is not None:
            entry["cpu_s"] += s.cpu
        for key, value in s.attrs.items():
            entry[key] = entry.get(key, 0) + value
    return out


_UNITS = {
    "calls": "count", "failed": "count", "self_s": "s", "wall_s": "s", "busy_s": "s",
    "cpu_s": "s", "bytes": "B", "flops": "flop", "p50_ms": "ms", "p90_ms": "ms", "p99_ms": "ms",
}
_STATS = {
    "storage.read_grid": ("calls", "self_s", "bytes"),
    "bases.bspline_tensor_basis": ("calls", "self_s"),
    "space.gram": ("calls", "self_s", "flops"),
    "space.whiten": ("calls", "self_s"),
    "space.project_scores": ("calls", "self_s", "bytes"),
    "decomp.fit_subspace_pca": ("calls", "self_s"),
    "decomp.diagnose_projection": ("calls", "self_s"),
    "decomp.component_scores": ("calls", "self_s"),
    "decomp.centered_scores": ("calls", "self_s"),
    "decomp._eig_from_scores": ("calls", "self_s", "p50_ms", "p99_ms"),
    "regression.plugin_cov": ("calls", "self_s"),
    "regression.fit_pcr": ("calls", "self_s"),
    "regression.fit_precision": ("calls", "self_s", "p50_ms"),
    "resampling.bootstrap_theta": ("self_s",),
    "resampling.block_jackknife": ("self_s",),
    "simulate.generate_dataset": ("calls", "self_s"),
    "simulate.make_family": ("calls", "self_s"),
    "simulate.run_replicate": ("calls", "p50_ms", "p90_ms", "failed"),
    POOL: ("wall_s", "busy_s", "cpu_s"),
}
COMMANDS = ("diagnose", "regress", "bootstrap", "jackknife", "simulate")


def layer_metrics(summaries: list, overhead_ratio: float) -> dict:
    """Per-module metrics from the summaries of a run's traced iterations.

    Counts (calls, failures, computed sizes) repeat exactly from one
    iteration to the next and are taken from the first; times are medians
    over iterations; call-duration percentiles pool every call.
    """
    first = summaries[0]
    metrics = {}

    def per_iteration(name, key):
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    for name, stats in _STATS.items():
        for stat in stats:
            if stat.endswith("_ms"):
                calls = [d for s in summaries for d in s.get(name, {}).get("durations", [])]
                value = 1e3 * quantile(calls, int(stat[1:3]) / 100)
            elif _UNITS[stat] == "s":
                value = per_iteration(name, stat)
            else:
                value = first.get(name, {}).get(stat, 0)
            metrics[f"{name}.{stat}"] = (value, _UNITS[stat])
    attempted = sum(first.get(f"resampling.{f}", {}).get("attempted", 0)
                    for f in ("bootstrap_theta", "block_jackknife"))
    failed = sum(first.get(f"resampling.{f}", {}).get("failed", 0)
                 for f in ("bootstrap_theta", "block_jackknife"))
    metrics["resampling.replicates.attempted"] = (attempted, "count")
    metrics["resampling.replicates.failed"] = (failed, "count")
    metrics["resampling.replicates.useful_ratio"] = (
        (attempted - failed) / attempted if attempted else 0.0, "ratio")
    for command in COMMANDS:
        metrics[f"cli.main.{command}.s"] = (per_iteration(f"cli.main.{command}", "wall_s"), "s")
    metrics["cli.main.cpu_s"] = (
        statistics.median(sum(v["cpu_s"] for k, v in s.items() if k.startswith("cli.main."))
                          for s in summaries), "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
