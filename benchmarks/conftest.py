"""Shared benchmark helpers.

Every paper artefact (table, figure or ablation) is one ``bench_*``
function that regenerates it exactly once, prints it with its wall
time, and asserts the paper's claim about it.  ``pytest.ini`` in this
directory collects them, so one command is the reproduction report::

    PYTHONPATH=src python -m pytest benchmarks/ -s

``-m "not slow"`` leaves out the artefacts that take over 10 s under
the quick profile.

Profiles (set ``REPRO_BENCH_PROFILE``):

* ``quick`` (default) — coarse ε grids, registry-scale datasets.
* ``paper`` — the paper's full ε grids; combine with
  ``REPRO_FULL_SCALE=1`` for paper-exact dataset sizes.
"""

from __future__ import annotations

import time

import pytest


@pytest.fixture
def run_once(request):
    """``run_once(func, *args, **kwargs)``: call ``func`` once and print
    its wall time under the artefact's name."""

    def run(func, *args, **kwargs):
        started = time.perf_counter()
        result = func(*args, **kwargs)
        elapsed = time.perf_counter() - started
        print(f"\n[{request.node.name}] wall time {elapsed:.2f} s")
        return result

    return run


@pytest.fixture(scope="session")
def root_seed() -> int:
    """Root seed for all benchmark randomness (the paper's VLDB date)."""
    return 20120827


def series_by_label(figure_result, prefix: str):
    """The figure's series whose labels start with ``prefix``."""
    return [
        series
        for series in figure_result.series
        if series.label.startswith(prefix)
    ]


def final_point(series, metric: str) -> float:
    """The metric value at the largest ε of a series."""
    values = getattr(series, f"{metric}_mean")
    return values[-1]


def mean_over_grid(series, metric: str) -> float:
    """The metric averaged over the whole ε grid of a series."""
    values = getattr(series, f"{metric}_mean")
    finite = [value for value in values if value == value]
    return sum(finite) / len(finite) if finite else float("nan")
