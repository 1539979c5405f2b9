"""Ablation — Laplace vs geometric bin noise (extension).

The paper adds Laplace noise to bin counts.  The two-sided geometric
mechanism (Ghosh–Roughgarden–Sundararajan) is its discrete analogue
with strictly smaller variance (``2α/(1−α)² ≤ 2(Δ/ε)²``, ratio → 1
as ε → 0) and integer outputs.  This bench runs PrivBasis under both
mechanisms on mushroom across ε and reports FNR/RE — the expectation
is near-identical utility (the variance gap is a few percent in the
relevant ε range), making "geometric" a free choice when integer
releases are required.
"""

from __future__ import annotations

from repro.datasets.registry import load_dataset
from repro.experiments.runner import pb_spec, run_trials

K = 100
EPSILONS = (0.1, 0.5, 1.0)
TRIALS = 5


def bench_ablation_noise(run_once, root_seed):
    database = load_dataset("mushroom")

    def measure():
        rows = []
        for epsilon in EPSILONS:
            row = {"epsilon": epsilon}
            for noise in ("laplace", "geometric"):
                fnrs, res = run_trials(
                    database,
                    pb_spec(K, noise=noise),
                    K,
                    epsilon,
                    trials=TRIALS,
                    seed=root_seed,
                )
                row[noise] = (
                    sum(fnrs) / len(fnrs),
                    sum(res) / len(res),
                )
            rows.append(row)
        return rows

    rows = run_once(measure)

    print()
    print(
        f"ablation: bin-noise mechanism on mushroom "
        f"(k = {K}, {TRIALS} trials)"
    )
    print("epsilon  laplace FNR/RE     geometric FNR/RE")
    for row in rows:
        lap_fnr, lap_re = row["laplace"]
        geo_fnr, geo_re = row["geometric"]
        print(
            f"{row['epsilon']:<8g} {lap_fnr:.3f} / {lap_re:.4f}"
            f"     {geo_fnr:.3f} / {geo_re:.4f}"
        )

    # The mechanisms are interchangeable in utility: neither side is
    # ever worse by more than a small margin at any ε.
    for row in rows:
        assert abs(row["laplace"][0] - row["geometric"][0]) <= 0.10
