#!/usr/bin/env python
"""Clickstream scenario: publish all page-sets visited by ≥ θ of users.

A news site wants to publish every combination of sections that at
least 2% of its visitors read in one session — a θ-threshold query,
not a top-k query.  The threshold frontend privately selects the k
matching θ, runs PrivBasis, and filters the release (paper Section 4's
opening remark, made explicitly private).

This example also shows the privacy/utility trade-off: the same query
at several ε, with precision/recall against the exact θ-frequent sets.

Run:  python examples/clickstream_threshold.py [theta]
"""

import sys

from repro import load_dataset
from repro.core.threshold import privbasis_threshold
from repro.fim.topk import frequent_itemsets

THETA = float(sys.argv[1]) if len(sys.argv) > 1 else 0.02


def main() -> None:
    database = load_dataset("kosarak")
    n = database.num_transactions
    print(
        f"kosarak clickstream: {n} sessions, "
        f"{database.num_items} pages"
    )

    # Ground truth (what a non-private miner would publish).
    exact = frequent_itemsets(database, min_support=int(THETA * n) or 1)
    exact_sets = set(exact)
    print(
        f"exact theta-frequent itemsets at theta = {THETA}: "
        f"{len(exact_sets)}\n"
    )

    print(f"{'epsilon':<8} {'released':>9} {'precision':>10} {'recall':>8}")
    for epsilon in (0.25, 0.5, 1.0, 2.0):
        release = privbasis_threshold(
            database, theta=THETA, epsilon=epsilon, rng=7
        )
        released = {entry.itemset for entry in release.itemsets}
        if released:
            true_positives = len(released & exact_sets)
            precision = true_positives / len(released)
            recall = true_positives / len(exact_sets)
        else:
            precision = recall = 0.0
        print(
            f"{epsilon:<8g} {len(released):>9} {precision:>10.2f} "
            f"{recall:>8.2f}"
        )

    print(
        "\nNote: the private k-selection and the noise both blur the "
        "theta boundary;\nitemsets far above theta are reliably kept, "
        "borderline ones churn."
    )


if __name__ == "__main__":
    main()
