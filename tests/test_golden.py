"""Golden ``RunResult`` corpus: whole runs must stay bit-identical.

Every cell of ``tools/regen_golden.py`` is re-simulated and compared
field by field with its committed ``tests/golden/<cell>.json``. A
refactor that only reshapes code (scheduler, data layout, hot-path
rewrites) must leave every file untouched; a change that is meant to
move results regenerates them with ``python tools/regen_golden.py
--update`` and says so.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import regen_golden  # noqa: E402

CELLS = regen_golden.cells()


@pytest.mark.parametrize("cell", CELLS, ids=[cell.name for cell in CELLS])
def test_run_matches_golden(cell):
    expected = regen_golden.load(cell)
    assert expected is not None, f"missing {regen_golden.path_of(cell)}"
    lines = list(regen_golden.diff(expected, regen_golden.run_cell(cell)))
    assert not lines, "\n".join([cell.name] + lines)


@pytest.mark.parametrize("knob", ["use_predictor", "use_prefetcher"])
def test_undemanded_fetches_ignore_process_history(knob, monkeypatch):
    """Prefetches and MAP-I speculative fetches carry no demand. Their
    backing-store age must come from the demand sequence, whose absolute
    value depends on how many demands the process created before, so a
    run late in a long process must match its golden file."""
    import repro.cache.request as request

    monkeypatch.setattr(request, "_sequence", itertools.count(10 ** 9))
    cell, = [cell for cell in CELLS if cell.overrides == ((knob, True),)]
    lines = list(regen_golden.diff(regen_golden.load(cell),
                                   regen_golden.run_cell(cell)))
    assert not lines, "\n".join([cell.name] + lines)


def test_corpus_has_exactly_one_file_per_cell():
    on_disk = set(regen_golden.GOLDEN_DIR.glob("*.json"))
    assert on_disk == {regen_golden.path_of(cell) for cell in CELLS}


def test_diff_reports_each_changed_leaf():
    old = {"runtime_ps": 5, "breakdown": {"read_hit": 0.5}, "epochs": [1, 2]}
    new = {"runtime_ps": 6, "breakdown": {"read_hit": 0.5}, "epochs": [1, 3]}
    assert list(regen_golden.diff(old, new)) == [
        "epochs[1]: 2 -> 3", "runtime_ps: 5 -> 6"]
    assert list(regen_golden.diff(new, new)) == []
    assert list(regen_golden.diff({"x": 1}, {"x": 1.0})) == ["x: 1 -> 1.0"]
