"""Outside-in per-layer trace for the end-to-end benchmark.

The trace lives entirely in the benchmark: it wraps the public methods
of each layer (the packages of ``src/repro``) as spans while a traced
pass runs, and restores the originals afterwards. Every callback given
to ``Simulator.at`` becomes a span named after the package that defines
it (``functools.partial`` is unwrapped first), so the kernel's dispatch
loop shows up as ``sim`` self time and each woken component as its own
layer.

A span's self time is its duration minus the time of the spans it
called. Code that no boundary wraps is charged to the nearest wrapped
caller, which is what "outside-in" means here. Spans are aggregated in
memory by kind (``<layer>.<method>``) and by (parent kind, kind) edge,
never written per call, so a traced pass of a few hundred thousand
events stays small.

The trace only observes: every wrapper calls the original with the same
arguments and returns its result unchanged, and the benchmark proves it
by requiring the traced cells' ``asdict(RunResult)`` hashes to equal the
untraced ones.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.cache.controller import DramCacheController
from repro.cache.no_cache import NoCacheSystem
from repro.cache.tagstore import TagStore
from repro.core.flush_buffer import FlushBuffer
from repro.core.probe import ProbeEngine
from repro.dram.device import DramChannel
from repro.energy.power_model import EnergyMeter
from repro.experiments import runner
from repro.memory.backend import MemoryBackend
from repro.sim.kernel import Simulator
from repro.stats.counters import CounterSet, LatencyStat, OccupancyStat

#: (layer, base class, public methods). Every class in the base's
#: hierarchy that defines one of the names in its own body is wrapped,
#: so an override and the ``super()`` call it makes are two spans.
BOUNDARIES: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("sim", Simulator, ("run", "at", "schedule", "cancel")),
    ("memory", MemoryBackend, ("read", "write")),
    ("dram", DramChannel, (
        "earliest_issue", "earliest_issue_open", "can_probe",
        "issue_access", "issue_access_open", "issue_probe", "transfer_raw")),
    ("cache", DramCacheController, ("submit", "can_accept")),
    ("cache", NoCacheSystem, ("submit", "can_accept")),
    ("cache", TagStore, ("probe", "install", "fill", "bulk_install")),
    ("core", ProbeEngine, ("select",)),
    ("core", FlushBuffer, (
        "is_full", "contains", "add", "pop", "remove", "inject_fault",
        "note_unload")),
    ("stats", CounterSet, ("add",)),
    ("stats", LatencyStat, ("record",)),
    ("stats", OccupancyStat, ("sample",)),
    ("energy", EnergyMeter, ("record", "add_dq_bytes")),
)

#: Layers whose self time the benchmark reports.
LAYERS = ("sim", "memory", "dram", "cache", "core", "frontend", "workloads",
          "stats", "energy", "experiments")


def _hierarchy(base: type) -> List[type]:
    """``base`` and every subclass loaded so far, parents first."""
    seen: List[type] = []
    todo = [base]
    while todo:
        cls = todo.pop(0)
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class Tracer:
    """Aggregated span recorder for one traced pass."""

    def __init__(self) -> None:
        #: kind -> completed spans
        self.calls: Dict[str, int] = defaultdict(int)
        #: kind -> host seconds inside the span minus its child spans
        self.self_s: Dict[str, float] = defaultdict(float)
        #: (parent kind, kind) -> completed spans
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        #: ``can_accept`` calls that returned False (frontend refusals)
        self.refusals = 0
        # Open spans: [kind, seconds spent in finished child spans].
        self._stack: List[list] = [["root", 0.0]]
        self._callback_kinds: Dict[object, str] = {}

    def span(self, kind: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so each call records one ``kind`` span."""
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        edges = self.edges

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [kind, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[1] += elapsed
                self_s[kind] += elapsed - frame[1]
                calls[kind] += 1
                edges[parent[0], kind] += 1

        return traced

    def callback_kind(self, callback: Callable) -> str:
        """``<layer>.callback`` for the package that defines ``callback``."""
        target = callback
        while isinstance(target, functools.partial):
            target = target.func
        func = getattr(target, "__func__", target)
        kind = self._callback_kinds.get(func)
        if kind is None:
            module = getattr(func, "__module__", None) or ""
            kind = _layer_of_module(module) + ".callback"
            self._callback_kinds[func] = kind
        return kind

    def count(self, kind: str) -> int:
        return self.calls.get(kind, 0)

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for kind, seconds in self.self_s.items():
            layer = kind.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def call_tree(self) -> List[Tuple[str, str, int]]:
        """(parent kind, kind, calls) edges, most frequent first."""
        return sorted(((parent, kind, n)
                       for (parent, kind), n in self.edges.items()),
                      key=lambda edge: (-edge[2], edge[0], edge[1]))


class Patches:
    """Class and module attributes replaced for a while, then restored."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class _TracedStream:
    """A demand stream whose ``__next__`` is a ``workloads`` span."""

    __slots__ = ("_next",)

    def __init__(self, traced_next: Callable) -> None:
        self._next = traced_next

    def __iter__(self) -> "_TracedStream":
        return self

    def __next__(self):
        return self._next()


def install(tracer: Tracer, patches: Patches) -> Callable:
    """Wrap every boundary for ``tracer``; returns a traced
    ``run_experiment``. Undo with ``patches.restore()``."""
    for layer, base, names in BOUNDARIES:
        for cls in _hierarchy(base):
            for name in names:
                original = cls.__dict__.get(name)
                if not inspect.isfunction(original):
                    continue
                kind = f"{layer}.{name}"
                if name == "can_accept":
                    original = _counting_refusals(tracer, original)
                elif cls is Simulator and name == "at":
                    original = _wrapping_callbacks(tracer, original)
                patches.replace(cls, name, tracer.span(kind, original))

    make_stream = runner.demand_stream

    def traced_demand_stream(*args, **kwargs):
        stream = make_stream(*args, **kwargs)
        return _TracedStream(tracer.span("workloads.next", stream.__next__))

    patches.replace(runner, "demand_stream", traced_demand_stream)
    return tracer.span("experiments.run_experiment", runner.run_experiment)


def _counting_refusals(tracer: Tracer, can_accept: Callable) -> Callable:
    def counted(*args, **kwargs):
        accepted = can_accept(*args, **kwargs)
        if not accepted:
            tracer.refusals += 1
        return accepted
    return counted


def _wrapping_callbacks(tracer: Tracer, at: Callable) -> Callable:
    span = tracer.span
    kind_of = tracer.callback_kind

    def at_traced_callback(sim, time, callback, *args):
        return at(sim, time, span(kind_of(callback), callback), *args)
    return at_traced_callback


def _per(count: float, demands: int) -> float:
    return count / demands if demands else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, results: List, demands: int,
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``results`` are the pass's RunResults (simulated quantities come
    from them); ``demands`` is the pass's simulated demand count, all
    cores and warm-up included.
    """
    c = tracer.count
    own = tracer.layer_self_s()
    accesses = c("memory.read") + c("memory.write")
    checks = (c("dram.earliest_issue") + c("dram.earliest_issue_open")
              + c("dram.can_probe"))
    issues = (c("dram.issue_access") + c("dram.issue_access_open")
              + c("dram.issue_probe"))
    measured = sum(r.demands for r in results)
    misses = sum(r.miss_ratio * r.demands for r in results)
    stats_calls = c("stats.add") + c("stats.record") + c("stats.sample")
    energy_calls = c("energy.record") + c("energy.add_dq_bytes")
    cells = len(results)
    return {
        "sim.events_per_demand": _per(sum(r.sim_events for r in results),
                                      demands),
        "sim.schedules_per_demand": _per(c("sim.at"), demands),
        "sim.cancels_per_demand": _per(c("sim.cancel"), demands),
        "sim.self_s": own["sim"],
        "memory.accesses_per_demand": _per(accesses, demands),
        "memory.wakes_per_demand": _per(c("memory.callback"), demands),
        "memory.wake_yield": _ratio(accesses, c("memory.callback")),
        "memory.self_s": own["memory"],
        "memory.read_latency_ns": _ratio(
            sum(r.mm_read_latency_ns for r in results), cells),
        "dram.checks_per_demand": _per(checks, demands),
        "dram.issues_per_demand": _per(issues, demands),
        "dram.issue_yield": _ratio(issues, checks),
        "dram.self_s": own["dram"],
        "cache.wakes_per_demand": _per(c("cache.callback"), demands),
        "cache.tag_probes_per_demand": _per(c("cache.probe"), demands),
        "cache.self_s": own["cache"],
        "cache.prewarm_s": tracer.self_s.get("cache.bulk_install", 0.0),
        "cache.hit_ratio": _ratio(measured - misses, measured),
        "cache.read_queue_delay_ns": _ratio(
            sum(r.queue_delay_ns for r in results), cells),
        "core.probe_yield": _ratio(c("dram.issue_probe"),
                                   c("dram.can_probe")),
        "core.flush_stalls": float(sum(r.flush_stalls for r in results)),
        "core.self_s": own["core"],
        "frontend.refusals_per_demand": _per(tracer.refusals, demands),
        "frontend.self_s": own["frontend"],
        "workloads.self_s": own["workloads"],
        "stats.calls_per_demand": _per(stats_calls, demands),
        "stats.self_s": own["stats"],
        "energy.calls_per_demand": _per(energy_calls, demands),
        "energy.self_s": own["energy"],
        "experiments.harvest_s": own["experiments"],
    }

