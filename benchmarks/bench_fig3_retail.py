"""Figure 3 — Retail, k ∈ {50, 100}: larger λ, several bases of length 7.

Paper shape to reproduce:

* PB clearly better than TF at both k;
* retail is the hardest dataset for PB (many itemsets just below f_k,
  so FNR is the worst among the five datasets) — the assertion bounds
  are accordingly looser;
* TF (m = 1, the best-precision choice: γ forces singletons) has FNR
  near 1 at small ε and stays far above PB.
"""

from __future__ import annotations

from conftest import final_point, mean_over_grid, series_by_label

from repro.experiments.figures import run_figure


def bench_fig3_retail(run_once, root_seed):
    result = run_once(run_figure, "fig3", seed=root_seed)
    print()
    print(result.render())

    pb50 = series_by_label(result, "PB, k = 50")[0]
    pb100 = series_by_label(result, "PB, k = 100")[0]
    tf50 = series_by_label(result, "TF, k = 50")[0]
    tf100 = series_by_label(result, "TF, k = 100")[0]

    # PB wins on average across the grid at both k.
    assert mean_over_grid(pb50, "fnr") < mean_over_grid(tf50, "fnr")
    assert mean_over_grid(pb100, "fnr") < mean_over_grid(tf100, "fnr")

    # The paper's "worse than the other datasets on all accounts"
    # remark: PB FNR on retail need not reach 0, but must still be
    # usable at full budget.
    assert final_point(pb50, "fnr") <= 0.4
    assert final_point(pb100, "fnr") <= 0.5

    # TF's selection is near-random here at low ε.
    assert tf100.fnr_mean[0] >= 0.6
