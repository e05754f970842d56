"""Outside-in tracing of the repeaterlab layers for the benchmark.

The tracer replaces public functions at their module attributes with
wrappers that record one span per call: name, parent, start, end and a
per-call detail (exit code, work done, item count). Work handed to a
``parallel_map`` is wrapped per item, so spans on the pool's worker threads
link to the map span that queued them. No package code changes. A name that
no longer exists is recorded as absent and skipped, so the benchmark keeps
working when a layer is deleted.

Spans stay in memory until the run ends. A span's self time is its duration
minus the part of it covered by its child spans.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

MAP = "_threads.parallel_map"
LAYERS = ("cli", "_threads", "protocols", "markov", "estimators", "simulator")

# (module, attribute, span name); the map is patched where it is looked up
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "parallel_map", MAP),
    ("simulator", "parallel_map", MAP),
    ("protocols", "build_chain", "protocols.build_chain"),
    ("markov", "validate", "markov.validate"),
    ("markov", "equilibrium", "markov.equilibrium"),
    ("markov", "hitting_stats", "markov.hitting_stats"),
    ("estimators", "estimate_latency", "estimators.estimate_latency"),
    ("estimators", "estimate_throughput", "estimators.estimate_throughput"),
    ("estimators", "exact_throughput_variance", "estimators.exact_throughput_variance"),
    ("estimators", "nested_throughput", "estimators.nested_throughput"),
    ("simulator", "simulate_chain", "simulator.simulate_chain"),
    ("simulator", "simulate_nested", "simulator.simulate_nested"),
)


def _sim_detail(fn):
    """(k or None, trajectory-steps) of one simulate_* call, bound by parameter name."""
    signature = inspect.signature(fn)

    def detail(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        config = bound["config"]
        return bound.get("k"), config.trajectories * config.steps_per_trajectory
    return detail


# per-call detail recorded on the span, from (args, kwargs, result)
DETAIL = {
    "cli.main": lambda fn: lambda args, kwargs, result: result,
    "simulator.simulate_chain": _sim_detail,
    "simulator.simulate_nested": _sim_detail,
}


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    t0: float
    t1: float
    detail: object


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, parent, fn, args, kwargs, detail=None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            extra = detail(args, kwargs, result) if detail else None
            self.spans.append(Span(sid, parent, name, t0, t1, extra))

    def _wrap(self, name, fn):
        if name == MAP:
            return self._wrap_map(fn)
        detail = DETAIL[name](fn) if name in DETAIL else None

        def wrapper(*args, **kwargs):
            return self._call(name, None, fn, args, kwargs, detail)
        return wrapper

    def _wrap_map(self, fn):
        def traced_map(work, items):
            items = list(items)
            layer = work.__module__.rpartition(".")[2]
            item_name = f"{layer}.{work.__qualname__}"

            def queue():
                parent = self._stack()[-1]
                return fn(lambda item: self._call(item_name, parent, work, (item,), {}),
                          items)
            return self._call(MAP, None, queue, (), {}, lambda a, kw, r: len(items))
        return traced_map

    def install(self, package: str = "repeaterlab"):
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("sid\tparent\tname\tt0\tt1\tdetail\n")
            for s in self.spans:
                handle.write(f"{s.sid}\t{s.parent}\t{s.name}\t{s.t0:.9f}\t{s.t1:.9f}\t{s.detail}\n")


def _union(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(spans: list[Span], op_wall: float, n_ops: int, workers: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced phase.

    op_wall is the summed wall time of the n_ops traced ops; workers is the
    pool width a map of enough items would use (the core count).
    """
    by_id = {s.sid: s for s in spans}
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append((s.t0, s.t1))
    self_time = defaultdict(list)
    for s in spans:
        covered = _union((max(lo, s.t0), min(hi, s.t1)) for lo, hi in kids[s.sid])
        self_time[s.name].append(s.t1 - s.t0 - covered)

    def named(name):
        return [s for s in spans if s.name == name]

    def calls(name):
        return len(self_time[name]) / n_ops, "count/op"

    def self_p50(name, scale, unit):
        return _p50(self_time[name]) * scale, unit

    def wall_share(name):
        return _union((s.t0, s.t1) for s in named(name)) / op_wall, "ratio"

    def rate(chosen):
        seconds = sum(s.t1 - s.t0 for s in chosen)
        return (sum(s.detail[1] for s in chosen) / seconds if seconds else 0.0), "1/s"

    maps = named(MAP)
    items = [s for s in spans if s.parent in by_id and by_id[s.parent].name == MAP]
    capacity = sum((m.t1 - m.t0) * min(workers, m.detail) for m in maps)
    m = {
        "cli.main.self_ms_p50": self_p50("cli.main", 1e3, "ms"),
        "cli.main.failed": (sum(1 for s in named("cli.main") if s.detail != 0), "count"),
        "_threads.parallel_map.calls": calls(MAP),
        "_threads.parallel_map.items": (len(items) / n_ops, "count/op"),
        "_threads.parallel_map.wait_s": (
            statistics.fmean(s.t0 - by_id[s.parent].t0 for s in items) if items else 0.0, "s"),
        "_threads.parallel_map.efficiency": (
            sum(s.t1 - s.t0 for s in items) / capacity if capacity else 0.0, "ratio"),
        "protocols.build_chain.calls": calls("protocols.build_chain"),
        "protocols.build_chain.self_us_p50": self_p50("protocols.build_chain", 1e6, "us"),
        "markov.validate.self_us_p50": self_p50("markov.validate", 1e6, "us"),
        "markov.equilibrium.calls": calls("markov.equilibrium"),
        "markov.equilibrium.self_us_p50": self_p50("markov.equilibrium", 1e6, "us"),
        "markov.hitting_stats.calls": calls("markov.hitting_stats"),
        "markov.hitting_stats.self_us_p50": self_p50("markov.hitting_stats", 1e6, "us"),
        "estimators.estimate_latency.self_us_p50":
            self_p50("estimators.estimate_latency", 1e6, "us"),
        "estimators.estimate_throughput.self_us_p50":
            self_p50("estimators.estimate_throughput", 1e6, "us"),
        "estimators.nested_throughput.self_us_p50":
            self_p50("estimators.nested_throughput", 1e6, "us"),
        "estimators.exact_throughput_variance.calls": calls("estimators.exact_throughput_variance"),
        "estimators.exact_throughput_variance.self_ms_p50":
            self_p50("estimators.exact_throughput_variance", 1e3, "ms"),
        "estimators.exact_throughput_variance.wall_share":
            wall_share("estimators.exact_throughput_variance"),
        "simulator.simulate_chain.calls": calls("simulator.simulate_chain"),
        "simulator.simulate_chain.traj_steps_per_s": rate(named("simulator.simulate_chain")),
        "simulator.simulate_chain.wall_share": wall_share("simulator.simulate_chain"),
        "simulator.simulate_nested.wall_share": wall_share("simulator.simulate_nested"),
    }
    nested = named("simulator.simulate_nested")
    for k in (1, 2, 3, 4):
        m[f"simulator.simulate_nested.traj_steps_per_s.k{k}"] = rate(
            [s for s in nested if s.detail[0] == k])
    # self time summed over threads, so a layer busy on two workers can exceed 1
    busy = defaultdict(float)
    for name, times in self_time.items():
        busy[name.partition(".")[0]] += sum(times)
    for layer in LAYERS:
        m[f"{layer}.busy_share"] = (busy[layer] / op_wall, "ratio")
    return m
