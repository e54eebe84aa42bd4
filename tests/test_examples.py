"""Smoke tests for the example scripts.

Every example must at least compile; the fast ones are executed
end-to-end as subprocesses (the heavier studies are exercised through
their library entry points elsewhere in the suite).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_directory_is_populated():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("script", ["timing_diagrams.py", "waveform_debug.py"])
def test_fast_example_runs(script):
    path = pathlib.Path(__file__).parent.parent / "examples" / script
    result = subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.strip()


def test_timing_diagram_output_matches_paper_instants():
    path = pathlib.Path(__file__).parent.parent / "examples" / \
        "timing_diagrams.py"
    result = subprocess.run([sys.executable, str(path)],
                            capture_output=True, text=True, timeout=120)
    assert "15.00 ns  HM packet starts on the HM bus" in result.stdout
    assert "15.75 ns  HM result at controller" in result.stdout
    assert "30.00 ns  data burst starts" in result.stdout
