"""End-to-end benchmark: simulated demands per host second.

Each workload is a fixed list of (design, workload spec) pairs run
serially, in this one process, through the public
``run_experiment(design, spec, config=SystemConfig.small(),
demands_per_core=..., seed=...)``. No other ``SystemConfig`` field is
set, so the benchmark survives the removal of speed- or
verification-only knobs. One run of ``run_experiment`` is a *cell*:
a pair on one seed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload high_miss --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every cell of the workload, then repeats them in
passes while ``--seconds`` allow, and reports the end-to-end metrics:

* ``demands_per_s`` -- simulated demands (all cores, warm-up included)
  per host second. A cell is timed from its first ``Simulator.run``
  call until ``run_experiment`` returns; each cell's median over the
  passes is summed over the cells.
* ``setup_s`` -- host seconds from ``run_experiment`` entry to its first
  ``Simulator.run`` call (streams, design and backend build, tag-store
  prewarm), each cell's median over the passes summed over the cells.
* ``peak_rss_mb`` -- peak resident memory of this process.

``--trace 1`` spends half the time on untraced passes and half on
passes traced by :mod:`layers`, and reports the per-layer metrics plus
``trace.overhead`` (untraced over traced ``demands_per_s``); it prints
the end-to-end metrics of its untraced passes too. ``--workload all``
runs the workloads one after another, and its last line prefixes each
metric with the workload name.

Every cell's ``asdict(RunResult)`` is hashed and checked: the hash must
repeat in every pass of the invocation, traced or not, and the result
must satisfy the invariants in :func:`check_result`. A cell that raises
or fails a check counts as failed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record (provenance, host
health, per-cell hashes and simulated outputs).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


class Workload(NamedTuple):
    #: (design, workload spec) pairs
    pairs: Tuple[Tuple[str, str], ...]
    #: seeds each pair runs on per ``--seed``. Cell costs vary from seed
    #: to seed (no_cache/pr.25 dispatches 22 events per demand at this
    #: length, with an 18 % coefficient of variation over seeds), so the
    #: measurement averages over this many inputs.
    inputs: int


#: Why each workload was chosen is recorded in BENCHMARK.json, and the
#: layer predictions in perfbench/predictions.json.
WORKLOADS: Dict[str, Workload] = {
    # Miss ratio 0.69-0.90, 35 % writes: dirty victims, TDRAM probing
    # and the flush buffer, cache DRAM and the DDR5 backend all work.
    "high_miss": Workload((("tdram", "ft.D"), ("cascade_lake", "ft.D"),
                           ("tdram", "is.D"), ("cascade_lake", "is.D")), 6),
    # Miss ratio 0: the controller hit path and cache DRAM do all the
    # work while main memory idles (the bypass case for memory changes).
    "low_miss": Workload((("tdram", "lu.C"), ("cascade_lake", "lu.C"),
                          ("tdram", "bfs.22"), ("cascade_lake", "bfs.22")),
                         6),
    # Figure 12's baseline: every demand goes to the DDR5 model, whose
    # per-seed cost varies most, hence the most inputs.
    "nocache_mm": Workload((("no_cache", "pr.25"), ("no_cache", "is.D")),
                           24),
}

#: Work quantum per core per cell in the timed passes.
DEMANDS_PER_CORE = 250
#: Work quantum of the untimed warm-up pass (imports, lazy set-up).
WARMUP_DEMANDS_PER_CORE = 50

#: (design, workload spec, seed): the arguments of one run_experiment.
Cell = Tuple[str, str, int]

SIMULATED_NOTE = ("simulated, not gated; the tdram/cascade_lake speedup is "
                  "unvalidated on this 2-workload subset against the "
                  "paper's 28-workload geomean of 1.20x (EXPERIMENTS.md)")


def cells_of(workload: str, seed: int) -> List[Cell]:
    """The cells one ``--seed`` runs: every pair on ``inputs`` seeds
    that no other ``--seed`` uses."""
    spec = WORKLOADS[workload]
    return [(design, spec_name, seed * spec.inputs + i)
            for i in range(spec.inputs)
            for design, spec_name in spec.pairs]


def cell_name(cell: Cell) -> str:
    return f"{cell[0]}/{cell[1]}@{cell[2]}"


def _import_repro() -> None:
    """Import the simulator from this checkout's ``src`` only."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {SRC}/repro")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def result_hash(result) -> str:
    """SHA-256 (first 16 hex digits) of ``asdict(result)``."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def check_result(result, design: str, spec_name: str, total_demands: int,
                 ) -> List[str]:
    """Invariants every RunResult must satisfy; returns the violations."""
    problems = []
    if result.design != design or result.workload != spec_name:
        problems.append(f"result is for {result.design}/{result.workload}")
    # ``demands`` counts the post-warm-up demands the cache controller
    # classified; the no-cache system classifies none.
    if not 0 <= result.demands <= total_demands:
        problems.append(f"demands={result.demands} outside "
                        f"[0, {total_demands}]")
    if design != "no_cache" and result.demands == 0:
        problems.append("no measured demands")
    if result.runtime_ps <= 0:
        problems.append(f"runtime_ps={result.runtime_ps}")
    for name in ("miss_ratio", "read_miss_ratio", "unuseful_fraction"):
        value = getattr(result, name)
        if not 0.0 <= value <= 1.0:
            problems.append(f"{name}={value} outside [0, 1]")
    shares = list(result.breakdown.values())
    if any(not 0.0 <= share <= 1.0 for share in shares):
        problems.append(f"breakdown share outside [0, 1]: {result.breakdown}")
    # An empty measured region has an all-zero breakdown.
    expected = 1.0 if result.demands else 0.0
    if abs(sum(shares) - expected) > 1e-9:
        problems.append(f"breakdown sums to {sum(shares)}")
    if result.useful_bytes > result.total_bytes:
        problems.append(f"useful_bytes={result.useful_bytes} > "
                        f"total_bytes={result.total_bytes}")
    return problems


class Stopwatch:
    """Timestamps the first ``Simulator.run`` call of each cell."""

    def __init__(self) -> None:
        self.first_run: Optional[float] = None

    def wrap(self, run):
        watch = self

        def timed_run(sim, *args, **kwargs):
            if watch.first_run is None:
                watch.first_run = perf_counter()
            return run(sim, *args, **kwargs)
        return timed_run


class Pass(NamedTuple):
    """Host timings and results of one pass over a workload's cells."""

    #: cell -> (setup seconds, run seconds); failed cells are absent
    times: Dict[Cell, Tuple[float, float]]
    results: list
    #: simulated demands per cell, all cores and warm-up included
    cell_demands: int

    @property
    def demands(self) -> int:
        """Simulated demands of the cells that passed their checks."""
        return self.cell_demands * len(self.times)

    @property
    def demands_per_s(self) -> float:
        run_s = sum(run for _setup, run in self.times.values())
        return self.demands / run_s if run_s > 0 else 0.0


class Bench:
    """Runs one workload's cells and keeps the record of every cell."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.config.system import SystemConfig

        self.cells = cells_of(workload, seed)
        self.config = SystemConfig.small()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: cell -> the hash every timed pass must reproduce
        self.hashes: Dict[Cell, str] = {}
        #: cell -> RunResult of the first timed pass
        self.results: Dict[Cell, object] = {}

    def run_pass(self, run_experiment, stopwatch: Stopwatch,
                 cells: List[Cell], demands_per_core: int,
                 label: str) -> Pass:
        """Run ``cells`` once each, checking every result."""
        total = demands_per_core * self.config.cores
        times: Dict[Cell, Tuple[float, float]] = {}
        results = []
        for cell in cells:
            design, spec_name, seed = cell
            self.attempted += 1
            stopwatch.first_run = None
            try:
                entered = perf_counter()
                result = run_experiment(
                    design, spec_name, config=self.config,
                    demands_per_core=demands_per_core, seed=seed)
                returned = perf_counter()
            except Exception:  # a failed cell is counted, not fatal
                self._fail(label, cell, traceback.format_exc(limit=3))
                continue
            first_run = stopwatch.first_run or entered
            problems = check_result(result, design, spec_name, total)
            if label != "warmup":
                digest = result_hash(result)
                reference = self.hashes.setdefault(cell, digest)
                self.results.setdefault(cell, result)
                if digest != reference:
                    problems.append(f"hash {digest} != {reference}")
            if problems:
                self._fail(label, cell, "; ".join(problems))
                continue
            times[cell] = (first_run - entered, returned - first_run)
            results.append(result)
        return Pass(times, results, total)

    def _fail(self, label: str, cell: Cell, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{label} {cell_name(cell)}: {why}")


def repeat(one_pass, seconds: float, minimum: int) -> list:
    """Call ``one_pass`` ``minimum`` times, then again while another
    call fits in ``seconds``; returns what the calls returned."""
    done: list = []
    start = perf_counter()
    while len(done) < minimum or (
            (perf_counter() - start) * (len(done) + 1) / len(done)
            <= seconds):
        done.append(one_pass())
    return done


def cell_medians(passes: List[Pass]) -> Tuple[float, float, int]:
    """(setup seconds, run seconds, demands) from each cell's median
    over ``passes``; a cell that failed in any pass is left out."""
    common = set.intersection(*(set(p.times) for p in passes))
    setup_s = sum(statistics.median(p.times[c][0] for p in passes)
                  for c in common)
    run_s = sum(statistics.median(p.times[c][1] for p in passes)
                for c in common)
    return setup_s, run_s, passes[0].cell_demands * len(common)


def _git_revision() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: nothing to ask git
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 demands_per_core: int = DEMANDS_PER_CORE) -> dict:
    """Measure one workload; returns the full record."""
    from repro.experiments import runner
    from repro.sim.kernel import Simulator
    import numpy
    import layers

    load_before = os.getloadavg()
    bench = Bench(workload, seed)
    stopwatch = Stopwatch()
    patches = layers.Patches()
    patches.replace(Simulator, "run", stopwatch.wrap(Simulator.run))

    def untraced_pass() -> Pass:
        return bench.run_pass(runner.run_experiment, stopwatch, bench.cells,
                              demands_per_core, "untraced")

    def traced_pass() -> Tuple[Pass, layers.Tracer]:
        tracer = layers.Tracer()
        trace_patches = layers.Patches()
        try:
            traced_run = layers.install(tracer, trace_patches)
            return (bench.run_pass(traced_run, stopwatch, bench.cells,
                                   demands_per_core, "traced"), tracer)
        finally:
            trace_patches.restore()

    try:
        warmup = bench.cells[:len(WORKLOADS[workload].pairs)]
        bench.run_pass(runner.run_experiment, stopwatch, warmup,
                       min(WARMUP_DEMANDS_PER_CORE, demands_per_core),
                       "warmup")
        budget = seconds / 2 if trace else seconds
        # Two untraced passes at least, so every hash meets a repeat.
        untraced = repeat(untraced_pass, budget, 2)
        traced = repeat(traced_pass, budget, 1) if trace else []
    finally:
        patches.restore()
    load_after = os.getloadavg()

    setup_s, run_s, demands = cell_medians(untraced)
    speed = demands / run_s if run_s > 0 else 0.0
    metrics = {"demands_per_s": speed, "setup_s": setup_s,
               "peak_rss_mb": _peak_rss_mb()}
    if trace:
        per_pass = [layers.layer_metrics(tracer, p.results, p.demands)
                    for p, tracer in traced]
        for name in per_pass[0]:
            metrics[name] = statistics.median(m[name] for m in per_pass)
        _, traced_s, traced_demands = cell_medians([p for p, _ in traced])
        traced_speed = traced_demands / traced_s if traced_s > 0 else 0.0
        metrics["trace.overhead"] = (speed / traced_speed
                                     if traced_speed else 0.0)

    cpu_count = os.cpu_count() or 1
    cells = []
    for cell in bench.cells:
        result = bench.results.get(cell)
        cells.append({
            "cell": cell_name(cell),
            "hash": bench.hashes.get(cell),
            "runtime_ps": result.runtime_ps if result else None,
            "miss_ratio": result.miss_ratio if result else None,
        })
    return {
        "bench": "perfbench",
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "demands_per_core": demands_per_core,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": cpu_count,
        "loadavg_before": list(load_before),
        "loadavg_after": list(load_after),
        "degraded": max(load_before[0], load_after[0]) > cpu_count,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "cells": cells,
        "simulated": {"note": SIMULATED_NOTE,
                      "tdram_over_cascade_lake": _speedup(bench)},
        "metrics": metrics,
        "untraced_passes": [p.demands_per_s for p in untraced],
        "traced_passes": [p.demands_per_s for p, _ in traced],
        "call_tree": traced[0][1].call_tree() if traced else [],
    }


def _speedup(bench: Bench) -> Optional[float]:
    """Geomean runtime speedup of tdram over cascade_lake (simulated)."""
    ratios = []
    for design, spec_name, seed in bench.cells:
        if design != "tdram":
            continue
        tdram = bench.results.get((design, spec_name, seed))
        base = bench.results.get(("cascade_lake", spec_name, seed))
        if tdram is None or base is None:
            return None
        ratios.append(base.runtime_ps / tdram.runtime_ps)
    if not ratios:
        return None
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def report(record: dict) -> dict:
    """Print the human-readable lines and the record; return the result,
    whose metrics are the end-to-end ones, or with ``--trace 1`` the
    per-layer ones."""
    end_to_end = metric_units("end_to_end")
    per_layer = metric_units("per_layer") if record["trace"] else {}
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} "
          f"passes={len(record['untraced_passes'])} untraced"
          f"+{len(record['traced_passes'])} traced "
          f"demands_per_core={record['demands_per_core']}")
    for cell in record["cells"]:
        print(f"cell {cell['cell']} hash={cell['hash']} "
              f"runtime_ps={cell['runtime_ps']} "
              f"miss_ratio={cell['miss_ratio']} (simulated, not gated)")
    speedup = record["simulated"]["tdram_over_cascade_lake"]
    if speedup is not None:
        print(f"simulated tdram_over_cascade_lake = {speedup} "
              f"({SIMULATED_NOTE})")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    print(f"cells attempted={record['attempted']} failed={record['failed']}"
          f"{' (degraded host)' if record['degraded'] else ''}")
    for name, unit in {**end_to_end, **per_layer}.items():
        print(f"metric {name} = {record['metrics'][name]} {unit}")
    print(json.dumps(record, sort_keys=True))
    units = per_layer or end_to_end
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_repro()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: report(run_workload(name, args.seed, args.seconds,
                                         bool(args.trace)))
               for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
