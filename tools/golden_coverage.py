#!/usr/bin/env python
"""List the simulator lines that no golden cell executes.

Runs every cell of ``tools/regen_golden.py`` under a stdlib
``sys.settrace`` line tracer and reports, for the packages the golden
corpus is meant to lock (``repro.cache``, ``dram``, ``memory``,
``core``, ``energy`` and ``stats``), each statement line that no cell
reaches, then a per-module summary::

    python tools/golden_coverage.py

A line listed here can change without moving any golden file, so a
refactor touching it needs another test. The report is informational:
the exit code is 0 whatever it finds. Tracing starts before ``repro``
is imported, so module-level statements count as reached when any cell
imports the module; a module no cell imports shows all its lines.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from types import CodeType, FrameType
from typing import Callable, Dict, List, Optional, Set

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
SRC = ROOT / "src"
#: Packages under ``src/repro`` whose lines the report covers.
PACKAGES = ("cache", "dram", "memory", "core", "energy", "stats")

Tracer = Callable[[FrameType, str, object], Optional[Callable]]


def target_files() -> List[Path]:
    """Every source file of the covered packages, in a stable order."""
    return sorted(path for package in PACKAGES
                  for path in (SRC / "repro" / package).rglob("*.py"))


def statement_lines(path: Path) -> Set[int]:
    """Line numbers that start a statement which compiles to code.

    Docstrings are left out, and a statement counts only when the
    compiled module has an instruction on its first line.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                docstrings.add(first.lineno)
    stmts = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt)} - docstrings
    return stmts & code_lines(compile(source, str(path), "exec"))


def code_lines(code: CodeType) -> Set[int]:
    """Lines that carry at least one instruction, across nested code."""
    lines = {line for _start, _end, line in code.co_lines()
             if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def trace_cells(watched: Set[str]) -> Dict[str, Set[int]]:
    """Run every golden cell under a line tracer; return lines hit per file."""
    hit: Dict[str, Set[int]] = {name: set() for name in watched}

    def local(frame: FrameType, event: str, _arg: object) -> Tracer:
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame: FrameType, _event: str, _arg: object) -> Optional[Tracer]:
        if frame.f_code.co_filename in watched:
            return local
        return None

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(TOOLS))
    sys.settrace(global_)
    try:
        import regen_golden  # imported here so module-level lines are traced

        for cell in regen_golden.cells():
            regen_golden.run_cell(cell)
            print(f"traced   {cell.name}", file=sys.stderr)
    finally:
        sys.settrace(None)
    return hit


def main(argv: Optional[List[str]] = None) -> int:
    """Trace the golden cells and print the unreached-line report."""
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    files = target_files()
    hit = trace_cells({str(path) for path in files})
    totals: Dict[str, List[int]] = {}
    print(f"{'file':44} {'stmts':>6} {'unreached':>9}")
    for path in files:
        stmts = statement_lines(path)
        missed = sorted(stmts - hit[str(path)])
        package = path.relative_to(SRC / "repro").parts[0]
        total = totals.setdefault(package, [0, 0])
        total[0] += len(stmts)
        total[1] += len(missed)
        if not missed:
            continue
        name = str(path.relative_to(SRC))
        print(f"{name:44} {len(stmts):6} {len(missed):9}")
        print(f"    {', '.join(map(str, missed))}")
    print()
    print(f"{'module':44} {'stmts':>6} {'unreached':>9}")
    for package in PACKAGES:
        stmts, missed = totals.get(package, [0, 0])
        print(f"{'repro.' + package:44} {stmts:6} {missed:9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
