"""Figure 5 — AOL, k ∈ {100, 200}: the λ ≈ k singleton-dominated regime.

Paper shape to reproduce:

* this is TF's best case ("the dataset where TF performs closest to
  PB") because m = 1 degenerates TF into frequent-singleton mining,
  which covers most of the top-k here;
* both methods reach small FNR at ε = 1; the PB-over-TF gap is small
  but PB is never worse by a margin;
* the paper's ε grid starts at 0.5 (both methods need the larger
  budget on this sparse dataset).
"""

from __future__ import annotations

import pytest
from conftest import final_point, mean_over_grid, series_by_label

from repro.experiments.figures import run_figure


@pytest.mark.slow
def bench_fig5_aol(run_once, root_seed):
    result = run_once(run_figure, "fig5", seed=root_seed)
    print()
    print(result.render())

    pb100 = series_by_label(result, "PB, k = 100")[0]
    pb200 = series_by_label(result, "PB, k = 200")[0]
    tf100 = series_by_label(result, "TF, k = 100")[0]
    tf200 = series_by_label(result, "TF, k = 200")[0]

    # Both methods are usable here (paper y-axis caps at 0.5).
    for series in (pb100, pb200, tf100, tf200):
        assert final_point(series, "fnr") <= 0.5

    # The gap narrows but PB never loses by a margin.
    for pb, tf in ((pb100, tf100), (pb200, tf200)):
        assert (
            mean_over_grid(pb, "fnr")
            <= mean_over_grid(tf, "fnr") + 0.05
        )

    # PB FNR at full budget is small (paper: ≈ 0.05–0.1).
    assert final_point(pb100, "fnr") <= 0.2
    assert final_point(pb200, "fnr") <= 0.2
