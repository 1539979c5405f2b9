"""Ablation — consistency post-processing (extension beyond the paper).

The paper publishes raw noisy frequencies.  Differential privacy is
closed under post-processing, so the release can be repaired for free:
clamp counts to [0, N] and restore anti-monotonicity
(``X ⊆ Y ⇒ count(X) ≥ count(Y)``).  This bench measures what the
repair buys on the mushroom dataset across the ε grid, in mean
absolute count error over the released top-k.

Expected shape: large gains at small ε (noise dominates, many
violations to repair), vanishing gains at large ε (estimates already
consistent) — and the repair never hurts on average.
"""

from __future__ import annotations

import numpy as np

from repro.core.postprocess import enforce_consistency, is_consistent
from repro.core.privbasis import privbasis
from repro.datasets.registry import load_dataset

K = 100
EPSILONS = (0.05, 0.1, 0.25, 0.5, 1.0)
TRIALS = 5


def _absolute_errors(database, release, repaired):
    raw_error = 0.0
    fixed_error = 0.0
    for entry in release.itemsets:
        truth = float(database.support(entry.itemset))
        raw_error += abs(entry.noisy_count - truth)
        fixed_error += abs(repaired[entry.itemset][0] - truth)
    return raw_error / len(release.itemsets), fixed_error / len(
        release.itemsets
    )


def bench_ablation_consistency(run_once, root_seed):
    database = load_dataset("mushroom")
    n = database.num_transactions

    def measure():
        rows = []
        for epsilon in EPSILONS:
            raw_means = []
            fixed_means = []
            violations = 0
            for trial in range(TRIALS):
                release = privbasis(
                    database,
                    k=K,
                    epsilon=epsilon,
                    rng=root_seed + 101 * trial,
                )
                family = {
                    entry.itemset: (entry.noisy_count,
                                    entry.count_variance)
                    for entry in release.itemsets
                }
                if not is_consistent(family, num_transactions=n):
                    violations += 1
                repaired = enforce_consistency(
                    family, num_transactions=n
                )
                raw, fixed = _absolute_errors(
                    database, release, repaired
                )
                raw_means.append(raw)
                fixed_means.append(fixed)
            rows.append(
                (
                    epsilon,
                    float(np.mean(raw_means)),
                    float(np.mean(fixed_means)),
                    violations,
                )
            )
        return rows

    rows = run_once(measure)

    print()
    print(
        "ablation: consistency repair on mushroom "
        f"(k = {K}, {TRIALS} trials; mean |count error| per itemset)"
    )
    print("epsilon  raw        repaired   inconsistent-trials")
    for epsilon, raw, fixed, violations in rows:
        print(
            f"{epsilon:<8g} {raw:<10.2f} {fixed:<10.2f} "
            f"{violations}/{TRIALS}"
        )

    # The repair never hurts on average at any ε.
    for epsilon, raw, fixed, _ in rows:
        assert fixed <= raw * 1.02 + 1e-9, f"eps={epsilon}"

    # At the smallest ε the raw release is actually inconsistent and
    # the repair yields a strict improvement.
    smallest = rows[0]
    assert smallest[3] > 0
    assert smallest[2] < smallest[1]
