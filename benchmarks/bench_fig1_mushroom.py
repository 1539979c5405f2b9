"""Figure 1 — Mushroom, k ∈ {50, 100}: the small-λ / single-basis regime.

Paper shape to reproduce:

* PB FNR close to 0 for ε ≥ 0.5 at both k;
* TF FNR > 0.6 at k = 100 even at ε = 1;
* TF FNR ≈ 0.6 at k = 50, ε = 0.5;
* PB relative error consistently small;
* PB at the *larger* k beats TF at the smaller k.
"""

from __future__ import annotations

from conftest import final_point, series_by_label

from repro.experiments.figures import run_figure


def bench_fig1_mushroom(run_once, root_seed):
    result = run_once(run_figure, "fig1", seed=root_seed)
    print()
    print(result.render())

    pb50, pb100 = series_by_label(result, "PB, k = 50") + series_by_label(
        result, "PB, k = 100"
    )
    tf50, tf100 = series_by_label(result, "TF, k = 50") + series_by_label(
        result, "TF, k = 100"
    )

    # PB is near-exact at the top of the ε grid.
    assert final_point(pb50, "fnr") <= 0.10
    assert final_point(pb100, "fnr") <= 0.10

    # TF at k = 100 stays badly wrong even at ε = 1 (paper: > 0.6).
    assert final_point(tf100, "fnr") >= 0.45

    # PB with larger k beats TF with smaller k (the paper's headline).
    assert final_point(pb100, "fnr") < final_point(tf50, "fnr") + 0.05

    # PB's RE stays small across the grid (paper panel (b): < 0.05).
    assert max(pb50.re_mean) <= 0.10
    assert max(pb100.re_mean) <= 0.10

    # PB dominates TF pointwise in FNR on the shared grid.
    for pb, tf in ((pb50, tf50), (pb100, tf100)):
        for index in range(len(pb.epsilons)):
            assert pb.fnr_mean[index] <= tf.fnr_mean[index] + 0.05
