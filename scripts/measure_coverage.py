#!/usr/bin/env python
"""Dependency-free line-coverage measurement (baseline seeding).

``coverage.py`` is a CI-only dependency here; this script exists so
the committed gate baseline (``scripts/coverage_baseline.json``) can
be (re)seeded in a bare environment.  It installs a ``sys.settrace``
line tracer restricted to the gated packages, runs the tier-1 pytest
suite in-process, and reports executed-vs-executable line rates per
package.  Executable lines come from the compiled code objects'
line tables — close to, but not bit-identical with, coverage.py's
statement accounting, which is why the committed floors sit a few
points below measured values.

Usage::

    PYTHONPATH=src python scripts/measure_coverage.py [pytest args…]
"""

from __future__ import annotations

import dis
import json
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGES = (
    "repro/datasets",
    "repro/engine",
    "repro/pipeline",
    "repro/service",
    "repro/store",
)
SRC = REPO_ROOT / "src"

_MARKERS = tuple(f"/{package}/" for package in PACKAGES)

executed: dict = {}


def _trace(frame, event, arg):
    filename = frame.f_code.co_filename
    if not any(marker in filename for marker in _MARKERS):
        return None
    if event == "line":
        executed.setdefault(filename, set()).add(frame.f_lineno)
    return _trace


def executable_lines(path: Path) -> set:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = set()
    stack = [code]
    while stack:
        current = stack.pop()
        lines.update(
            line for _, line in dis.findlinestarts(current)
            if line is not None
        )
        stack.extend(
            const for const in current.co_consts
            if hasattr(const, "co_code")
        )
    return lines


def main(argv) -> int:
    # `python -m pytest` puts the rootdir on sys.path so test modules
    # can import `tests.conftest`; running via pytest.main from this
    # script must do the same by hand.
    sys.path.insert(0, str(REPO_ROOT))
    import pytest

    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        pytest.main(["-q", *argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    report = {}
    for package in PACKAGES:
        covered = total = 0
        for path in sorted((SRC / package).glob("*.py")):
            lines = executable_lines(path)
            hits = executed.get(str(path.resolve()), set())
            covered += len(lines & hits)
            total += len(lines)
        rate = 100.0 * covered / total if total else 0.0
        report[package] = {
            "covered": covered, "total": total,
            "percent": round(rate, 2),
        }
        print(f"{package:<20} {covered}/{total}  {rate:.2f}%")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
