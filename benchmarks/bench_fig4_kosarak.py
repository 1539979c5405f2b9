"""Figure 4 — Kosarak, k ∈ {100, 200, 300, 400}: PB's scalability in k.

Paper shape to reproduce (2×2 panel grid):

* PB stays accurate out to k = 400 ("the performance of PB is
  accurate even when k = 400");
* TF "has acceptable FNR only for k = 100 and ε ≥ 0.5";
* PB FNR degrades gracefully and monotonically-ish with k, TF
  collapses rapidly.
"""

from __future__ import annotations

import pytest
from conftest import final_point, series_by_label

from repro.experiments.figures import run_figure


@pytest.mark.slow
def bench_fig4_kosarak(run_once, root_seed):
    result = run_once(run_figure, "fig4", seed=root_seed)
    print()
    print(result.render())

    pb = {
        k: series_by_label(result, f"PB, k = {k}")[0]
        for k in (100, 200, 300, 400)
    }
    tf = {
        k: series_by_label(result, f"TF, k = {k}")[0]
        for k in (100, 200, 300, 400)
    }

    # PB usable at every k at full budget (paper: FNR well under 0.2).
    for k in (100, 200, 300, 400):
        assert final_point(pb[k], "fnr") <= 0.25, f"PB k={k}"

    # TF unusable beyond k = 100 even at full budget.
    for k in (200, 300, 400):
        assert final_point(tf[k], "fnr") >= 0.4, f"TF k={k}"

    # PB at k = 400 still beats TF at k = 100 at the grid top.
    assert final_point(pb[400], "fnr") <= final_point(tf[100], "fnr") + 0.05

    # Graceful degradation: PB's ε=1 FNR grows by bounded steps in k.
    finals = [final_point(pb[k], "fnr") for k in (100, 200, 300, 400)]
    assert finals[-1] <= finals[0] + 0.25
