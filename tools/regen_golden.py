#!/usr/bin/env python
"""Check or regenerate the golden ``RunResult`` corpus in ``tests/golden/``.

Each golden file holds ``dataclasses.asdict(RunResult)`` of one cell, a
(design, workload, backend, cache mode) run on ``SystemConfig.small()``
at a fixed seed. The corpus locks whole-run bit-identity across
refactors that must not change simulated behaviour::

    python tools/regen_golden.py            # print field-level diffs
    python tools/regen_golden.py --update   # rewrite differing/missing files

Without ``--update`` nothing is written and the exit code is 1 when any
cell differs from, or is missing in, the corpus. ``tests/test_golden.py``
runs the same comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.cache import DESIGNS  # noqa: E402 - path set up above
from repro.config.system import SystemConfig  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
SEED = 7
BACKENDS = ("ddr5", "pcm_like", "cxl_like")
CACHE_MODES = ("write_allocate", "write_only", "write_around")


class Cell(NamedTuple):
    """One golden run: the arguments of a ``run_experiment`` call."""

    design: str
    workload: str
    backend: str = "ddr5"
    cache_mode: str = "write_allocate"
    demands_per_core: int = 100
    #: further ``SystemConfig`` fields as ``(name, value)`` pairs
    overrides: Tuple[Tuple[str, object], ...] = ()

    @property
    def name(self) -> str:
        """File stem of this cell's golden JSON."""
        stem = f"{self.design}__{self.workload}__{self.backend}__{self.cache_mode}"
        return stem + "".join(f"__{key}={value}"
                              for key, value in self.overrides)

    def config(self) -> SystemConfig:
        """The ``SystemConfig.small()`` variant this cell runs on."""
        return SystemConfig.small().with_(
            memory_backend=self.backend, cache_mode=self.cache_mode,
            **dict(self.overrides))


def cells() -> List[Cell]:
    """Every golden cell, in a stable order.

    * each design on one high-miss (ft.D) and one low-miss (lu.C)
      workload, ddr5 / write_allocate;
    * tdram and cascade_lake on ft.D across every backend and cache mode;
    * no_cache on pr.25 and is.D, the no-cache baseline whose every
      demand reaches the DDR5 scheduler (the ``nocache_mm`` pairs);
    * tictoc on bfs.22, the only cell that reaches TicToc's clean-region
      bypass read (its hit branch and the bypass return);
    * tdram/ft.D without probing, the §V-A ablation's probe-free path;
    * cascade_lake/ft.D 4-way set-associative (§V-F), the only cell
      whose tag store picks victims among several ways;
    * cascade_lake/ft.D with the MAP-I hit/miss predictor (§V-D), whose
      speculative main-memory reads no other cell issues;
    * cascade_lake/ft.D with the prefetcher, the only cell that issues
      and scores prefetches.
    """
    out = [Cell(design, workload)
           for design in DESIGNS for workload in ("ft.D", "lu.C")]
    for design in ("tdram", "cascade_lake"):
        for backend in BACKENDS:
            for mode in CACHE_MODES:
                cell = Cell(design, "ft.D", backend, mode)
                if cell not in out:
                    out.append(cell)
    out.extend(Cell("no_cache", workload) for workload in ("pr.25", "is.D"))
    out.append(Cell("tictoc", "bfs.22"))
    out.append(Cell("tdram", "ft.D", overrides=(("enable_probing", False),)))
    for knob in (("cache_ways", 4), ("use_predictor", True),
                 ("use_prefetcher", True)):
        out.append(Cell("cascade_lake", "ft.D", overrides=(knob,)))
    return out


def path_of(cell: Cell) -> Path:
    """Where ``cell``'s golden JSON lives."""
    return GOLDEN_DIR / f"{cell.name}.json"


def run_cell(cell: Cell) -> dict:
    """Simulate ``cell`` and return its result as JSON-normal data
    (tuples become lists, dict keys strings), comparable with a
    loaded golden file."""
    result = run_experiment(cell.design, cell.workload, config=cell.config(),
                            demands_per_core=cell.demands_per_core, seed=SEED)
    return json.loads(json.dumps(asdict(result)))


def load(cell: Cell) -> Optional[dict]:
    """The committed golden data of ``cell``, or ``None`` if absent."""
    path = path_of(cell)
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def dump(cell: Cell, data: dict) -> None:
    """Write ``data`` as ``cell``'s golden JSON."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    path_of(cell).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


def _same(expected: object, actual: object) -> bool:
    """Exact equality, except that NaN equals NaN."""
    if isinstance(expected, float) and isinstance(actual, float):
        return expected == actual or (math.isnan(expected) and math.isnan(actual))
    return type(expected) is type(actual) and expected == actual


def diff(expected: object, actual: object, path: str = "") -> Iterator[str]:
    """Yield one ``path: expected -> actual`` line per differing leaf."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}.{key}" if path else str(key)
            if key not in actual:
                yield f"{where}: {expected[key]!r} -> <missing>"
            elif key not in expected:
                yield f"{where}: <missing> -> {actual[key]!r}"
            else:
                yield from diff(expected[key], actual[key], where)
    elif (isinstance(expected, list) and isinstance(actual, list)
          and len(expected) == len(actual)):
        for index, (old, new) in enumerate(zip(expected, actual)):
            yield from diff(old, new, f"{path}[{index}]")
    elif not _same(expected, actual):
        yield f"{path}: {expected!r} -> {actual!r}"


def main(argv: Optional[List[str]] = None) -> int:
    """Compare every cell with its golden file; see module doc."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite golden files that differ or are missing")
    args = parser.parse_args(argv)

    differing = 0
    for cell in cells():
        actual = run_cell(cell)
        expected = load(cell)
        lines = (["<no golden file>"] if expected is None
                 else list(diff(expected, actual)))
        if not lines:
            print(f"ok       {cell.name}")
            continue
        differing += 1
        print(f"DIFFERS  {cell.name}")
        for line in lines:
            print(f"    {line}")
        if args.update:
            dump(cell, actual)
            print(f"    rewrote {path_of(cell).relative_to(ROOT)}")
    known = {path_of(cell) for cell in cells()}
    for stale in sorted(set(GOLDEN_DIR.glob("*.json")) - known):
        print(f"STALE    {stale.relative_to(ROOT)} matches no cell")
        differing += 1
    if args.update:
        return 0
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
