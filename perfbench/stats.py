"""Percentiles and metric names, by the benchmark's reporting rules.

A timing is reported as its median and as a tail percentile.  A tail
percentile ``q`` is *supported* by ``n`` samples when at least ten
samples lie beyond its rank (``n - ceil(q/100 * n) >= 10``).  A metric
named ``..._p90_ms`` reports p90 when the sample supports it, and
otherwise the highest percentile it does support, so a run with a few
samples too few reads p89, not a jump to another statistic; below that
(fewer than about twenty samples) it reports the median.  The percentile
used and the sample count are printed beside every value.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Sequence, Tuple

#: Tail percentiles printed beside each timing when supported.
LADDER = (90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Metric names: a letter or digit, then ``[A-Za-z0-9_.-]``, ≤ 64."""
    return bool(_NAME.fullmatch(name))


def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ten beyond percentile ``q``."""
    return n > 0 and n - rank(n, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values`` (non-empty)."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def tail(values: Sequence[float], cap: float) -> Tuple[float, float]:
    """``(percentile used, value)`` for a tail metric capped at ``cap``.

    The highest percentile ``<= cap`` with ten samples beyond it; the
    median (reported as percentile 50) when that would not lie above
    the median.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    top = min(rank(n, cap), n - MIN_BEYOND)
    if top <= rank(n, 50.0):
        return 50.0, statistics.median(values)
    used = cap if top == rank(n, cap) else 100.0 * top / n
    return used, sorted(values)[top - 1]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Count, median and every supported ladder percentile."""
    summary: Dict[str, float] = {"n": len(values)}
    if values:
        summary["p50"] = statistics.median(values)
        for q in LADDER:
            if supported(len(values), q):
                summary[f"p{q:g}"] = percentile(values, q)
    return summary

