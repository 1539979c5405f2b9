"""Ablation — basis length ℓ for singleton queries (paper Section 4.2).

The paper's closed-form analysis: querying k items via bases of size ℓ
gives per-item error variance ``(2^{ℓ−1}/ℓ²)·k²·V``, minimized at
ℓ = 3 (4/9 of the one-basis-per-item strawman).  This bench

1. prints the analytic curve for ℓ = 1 … 8, and
2. verifies it *empirically*: fixed k items split into size-ℓ bases,
   noisy counts drawn via BasisFreq, per-item squared error averaged
   over repeated trials — the measured variance ratios must track the
   analytic ``2^{ℓ−1}/ℓ²`` shape and dip at ℓ = 3.
"""

from __future__ import annotations

import numpy as np

from repro.core.basis import BasisSet
from repro.core.basis_freq import noisy_bin_counts
from repro.core.error_variance import singleton_grouping_ev
from repro.datasets.synthetic import QuestConfig, generate_quest
from repro.fim.counting import bin_counts_for_items, superset_sum_transform

GROUP_SIZES = (1, 2, 3, 4, 5, 6, 7, 8)
NUM_ITEMS = 24          # divisible by every tested ℓ except 5, 7
EPSILON = 0.5
TRIALS = 120


def _bases_of_size(items, size):
    return BasisSet(
        [tuple(items[start:start + size])
         for start in range(0, len(items), size)]
    )


def _empirical_item_variance(database, group_size, rng):
    """Mean squared error of singleton counts under size-ℓ bases."""
    items = list(range(NUM_ITEMS))
    basis_set = _bases_of_size(items, group_size)
    exact = {
        item: float(database.support((item,))) for item in items
    }
    squared_error = 0.0
    samples = 0
    for _ in range(TRIALS):
        noisy = noisy_bin_counts(database, basis_set, EPSILON, rng=rng)
        for basis, bins in zip(basis_set.bases, noisy):
            sums = superset_sum_transform(np.asarray(bins, dtype=float))
            for position, item in enumerate(basis):
                estimate = sums[1 << position]
                squared_error += (estimate - exact[item]) ** 2
                samples += 1
    return squared_error / samples


def bench_ablation_basis_length(run_once):
    config = QuestConfig(
        num_transactions=400,
        num_items=NUM_ITEMS,
        avg_transaction_length=6.0,
    )
    database = generate_quest(config, rng=99)
    rng = np.random.default_rng(7)

    def measure():
        return {
            size: _empirical_item_variance(database, size, rng)
            for size in GROUP_SIZES
        }

    measured = run_once(measure)
    analytic = {
        size: singleton_grouping_ev(size, NUM_ITEMS)
        for size in GROUP_SIZES
    }

    print()
    print("ablation: basis length for k singleton queries "
          f"(k = {NUM_ITEMS}, eps = {EPSILON}, {TRIALS} trials)")
    print("ell  analytic 2^(l-1)/l^2  measured var (count^2)  measured/l=1")
    base = measured[1]
    for size in GROUP_SIZES:
        print(
            f"{size:<4} {analytic[size]:<21.4f} "
            f"{measured[size]:<23.1f} {measured[size] / base:.3f}"
        )

    # The analytic curve is minimized at 3 (paper: "minimized at l=3").
    assert min(analytic, key=analytic.get) == 3

    # Empirically: l=3 beats the direct method by roughly 4/9 and is
    # the measured minimum up to sampling noise (allow l=2/l=4 ties
    # within 15%).
    assert measured[3] < 0.62 * measured[1]
    floor = min(measured.values())
    assert measured[3] <= floor * 1.15

    # The exponential blow-up dominates for long bases.
    assert measured[8] > measured[3] * 4
