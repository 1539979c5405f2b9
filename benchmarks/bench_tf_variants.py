"""Baseline comparison — TF's two selection variants (paper Section 3).

The TF method selects its k itemsets either by (a) adding Laplace
noise to truncated frequencies and taking the top k, or (b) k rounds
of the exponential mechanism without replacement.  Bhaskar et al.
prove the same utility guarantee for both; the paper's experiments do
not separate them.  This bench runs both variants side by side on
mushroom to document that they are interchangeable here too — so the
reproduction's choice of the Laplace variant for the figures is not
load-bearing.
"""

from __future__ import annotations

from repro.datasets.registry import load_dataset
from repro.experiments.runner import run_trials, tf_spec

K = 50
M = 2
EPSILONS = (0.25, 0.5, 1.0)
TRIALS = 5


def bench_tf_variants(run_once, root_seed):
    database = load_dataset("mushroom")

    def measure():
        rows = []
        for epsilon in EPSILONS:
            row = {"epsilon": epsilon}
            for variant in ("laplace", "em"):
                fnrs, res = run_trials(
                    database,
                    tf_spec(K, M, variant=variant),
                    K,
                    epsilon,
                    trials=TRIALS,
                    seed=root_seed,
                )
                row[variant] = (
                    sum(fnrs) / len(fnrs),
                    sum(res) / len(res),
                )
            rows.append(row)
        return rows

    rows = run_once(measure)

    print()
    print(
        f"TF selection variants on mushroom "
        f"(k = {K}, m = {M}, {TRIALS} trials)"
    )
    print("epsilon  laplace FNR/RE     em FNR/RE")
    for row in rows:
        lap = row["laplace"]
        em = row["em"]
        print(
            f"{row['epsilon']:<8g} {lap[0]:.3f} / {lap[1]:.4f}"
            f"     {em[0]:.3f} / {em[1]:.4f}"
        )

    # Interchangeable: no variant dominates by a wide margin anywhere.
    for row in rows:
        assert abs(row["laplace"][0] - row["em"][0]) <= 0.25
