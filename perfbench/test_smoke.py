"""Smoke test of the benchmark at a tiny demand count.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run._import_repro()

SPEC = json.loads(run.BENCHMARK_JSON.read_text())
PREDICTIONS = json.loads(
    (Path(__file__).resolve().parent / "predictions.json").read_text())
TINY = 20


def _record(workload: str, trace: bool, **kwargs) -> dict:
    return run.run_workload(workload, seed=0, seconds=0, trace=trace,
                            demands_per_core=TINY, **kwargs)


def _assert_printed(out: str, result: dict, entries: list) -> None:
    lines = out.splitlines()
    assert json.loads(lines[-1])  # the record, before the result line
    for entry in entries:
        name, unit = entry["name"], entry["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"metric {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    assert set(result["metrics"]) == {entry["name"] for entry in entries}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload, capsys):
    result = run.report(_record(workload, trace=False))
    _assert_printed(capsys.readouterr().out, result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_per_layer_metrics_printed_and_trace_keeps_hashes(capsys):
    record = _record("high_miss", trace=True)
    result = run.report(record)
    _assert_printed(capsys.readouterr().out, result, SPEC["per_layer"])
    # A traced pass whose hash differs from the untraced one would be a
    # failed cell: the trace must not change simulated state.
    assert record["traced_passes"] and result["failed"] == 0
    assert result["metrics"]["trace.overhead"]["value"] > 1.0
    assert result["metrics"]["memory.accesses_per_demand"]["value"] > 0


def test_perturbed_hash_counts_as_failed_cell():
    from repro.experiments.runner import run_experiment

    bench = run.Bench("low_miss", 0)
    cells = bench.cells[:2]
    bench.run_pass(run_experiment, run.Stopwatch(), cells, TINY, "untraced")
    assert bench.failed == 0
    bench.hashes[cells[0]] = "0" * 16
    repeat = bench.run_pass(run_experiment, run.Stopwatch(), cells, TINY,
                            "untraced")
    assert bench.failed == 1 and list(repeat.times) == [cells[1]]
    assert run.cell_name(cells[0]) in bench.failures[0]
    assert "hash" in bench.failures[0]


def test_workloads_and_layer_metrics_are_declared_once():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    declared = [name for layer in PREDICTIONS["layers"].values()
                for name in layer["metrics"]]
    assert sorted(declared) == sorted(e["name"] for e in SPEC["per_layer"])
    assert len(declared) == len(set(declared))
