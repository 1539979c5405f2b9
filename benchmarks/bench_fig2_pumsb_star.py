"""Figure 2 — Pumsb-star, k ∈ {50, 150}: small-λ regime, deep itemsets.

Paper shape to reproduce:

* PB FNR close to 0 for ε ≥ 0.5, RE below a few percent (the paper's
  panel (b) y-axis tops out at 0.1);
* TF FNR > 0.7 at k = 150 even at ε = 1;
* TF FNR ≈ 0.4 at k = 50, ε = 0.5.
"""

from __future__ import annotations

from conftest import final_point, series_by_label

from repro.experiments.figures import run_figure


def bench_fig2_pumsb_star(run_once, root_seed):
    result = run_once(run_figure, "fig2", seed=root_seed)
    print()
    print(result.render())

    pb50 = series_by_label(result, "PB, k = 50")[0]
    pb150 = series_by_label(result, "PB, k = 150")[0]
    tf50 = series_by_label(result, "TF, k = 50")[0]
    tf150 = series_by_label(result, "TF, k = 150")[0]

    assert final_point(pb50, "fnr") <= 0.10
    assert final_point(pb150, "fnr") <= 0.15

    # TF collapses at the larger k (paper: FNR > 0.7 at ε = 1).
    assert final_point(tf150, "fnr") >= 0.5

    # PB at k = 150 still beats TF at k = 50.
    assert final_point(pb150, "fnr") < final_point(tf50, "fnr") + 0.05

    # Pumsb-star is dense: PB's relative error is tiny (paper < 0.02).
    assert max(pb50.re_mean) <= 0.05
    assert max(pb150.re_mean) <= 0.05
