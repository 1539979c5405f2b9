"""Utility metrics (paper Section 5)."""

from repro.metrics.utility import (
    evaluate_release,
    false_negative_rate,
    relative_error,
)

__all__ = [
    "evaluate_release",
    "false_negative_rate",
    "relative_error",
]
