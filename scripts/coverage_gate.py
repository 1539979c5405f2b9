#!/usr/bin/env python
"""Coverage regression gate for the data-plane and store packages.

CI runs the tier-1 suite under ``coverage.py`` and then calls this
script with the JSON report::

    coverage run --source=src/repro -m pytest -q
    coverage json -o coverage.json
    python scripts/coverage_gate.py coverage.json

The gate aggregates per-package line rates for the packages named in
``scripts/coverage_baseline.json`` (the chunked loaders and the
engine — the out-of-core plane's trust boundary — and the store, the
ε ledger's durability trust boundary) and **fails the
build** if any package drops below its committed baseline.  The
baseline records the seed floor, not the current high-water mark:
raising it is a deliberate commit, dropping below it is a regression.

No third-party dependency: the script only reads coverage.py's JSON
schema (``files.<path>.summary.{covered_lines,num_statements}``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "scripts" / "coverage_baseline.json"


def package_rates(report: dict, packages) -> Dict[str, Tuple[int, int]]:
    """``{package: (covered_lines, num_statements)}`` aggregated over
    every measured file under that package directory."""
    totals = {package: [0, 0] for package in packages}
    for path, entry in report.get("files", {}).items():
        normalized = path.replace("\\", "/")
        for package in packages:
            if f"/{package}/" in f"/{normalized}":
                summary = entry.get("summary", {})
                totals[package][0] += int(
                    summary.get("covered_lines", 0)
                )
                totals[package][1] += int(
                    summary.get("num_statements", 0)
                )
                break
    return {
        package: (covered, statements)
        for package, (covered, statements) in totals.items()
    }


def main(argv) -> int:
    if len(argv) != 2:
        print(
            "usage: coverage_gate.py <coverage-json-report>",
            file=sys.stderr,
        )
        return 2
    report_path = Path(argv[1])
    report = json.loads(report_path.read_text(encoding="utf-8"))
    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
    floors: Dict[str, float] = baseline["floors_percent"]

    rates = package_rates(report, floors)
    failures = []
    print(f"{'package':<28} {'lines':>12} {'rate':>8} {'floor':>8}")
    for package, floor in sorted(floors.items()):
        covered, statements = rates.get(package, (0, 0))
        if statements == 0:
            failures.append(
                f"{package}: no measured statements — was the package "
                f"renamed, or did coverage not run over src/?"
            )
            continue
        rate = 100.0 * covered / statements
        marker = "" if rate >= floor else "  << below floor"
        print(
            f"{package:<28} {covered:>5}/{statements:<6} "
            f"{rate:>7.2f}% {floor:>7.2f}%{marker}"
        )
        if rate < floor:
            failures.append(
                f"{package}: {rate:.2f}% is below the committed "
                f"baseline floor of {floor:.2f}%"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("coverage gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
