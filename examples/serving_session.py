#!/usr/bin/env python
"""Serving batched multi-tenant releases from one warm session.

Scenario: one database (a retail-like basket log), several tenants
each asking for their own ε-DP top-k release — different k, different
budgets, different noise mechanisms.  A single
:class:`repro.PrivBasisSession` serves them all: exact dataset-derived
state (item supports, pair supports, bin histograms, the top-k oracle)
is built once and shared, and fresh noise is drawn per release.  The
session keeps no ledger: the caller caps spending across tenants
with a :class:`repro.dp.budget.PrivacyBudget`, spent *before* each
release, so an over-budget request is refused before any noise is
drawn.  (The network service does the same per tenant with its
ledger journal.)

Run:  PYTHONPATH=src python examples/serving_session.py [--smoke]
(``--smoke`` shrinks the workload for CI.)
"""

import sys

from repro import PrivBasisSession, load_dataset
from repro.dp.budget import PrivacyBudget
from repro.errors import BudgetExceededError


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]

    database = load_dataset("retail" if not smoke else "mushroom")
    print(
        f"dataset: {database.num_transactions} transactions over "
        f"{database.num_items} items"
    )

    # One session; a global cap of ε = 4 across *all* tenants
    # (sequential composition over the session's lifetime).
    session = PrivBasisSession(database, rng=2012)
    budget = PrivacyBudget(4.0)

    tenants = [
        {"k": 20, "epsilon": 0.5},
        {"k": 50, "epsilon": 1.0},
        {"k": 20, "epsilon": 0.5, "noise": "geometric"},
    ]
    if smoke:
        tenants = tenants[:2]

    print(f"\nserving a batch of {len(tenants)} tenant requests ...")
    results = []
    for index, request in enumerate(tenants):
        budget.spend(request["epsilon"], label=f"tenant {index}")
        results.append(session.release(**request))
    for request, result in zip(tenants, results):
        top = result.itemsets[0]
        label = "{" + ", ".join(map(str, top.itemset)) + "}"
        print(
            f"  k={request['k']:>3} eps={request['epsilon']:<4} "
            f"noise={request.get('noise', 'laplace'):<9} -> "
            f"{len(result.itemsets)} itemsets, top {label} "
            f"(noisy f = {top.noisy_frequency:.3f})"
        )

    print(f"\nsession after batch: {session!r}")
    print("cache info (hits show what the warm session reused):")
    for kind, counters in session.cache_info().items():
        print(
            f"  {kind:20s} hits={counters['hits']:<4} "
            f"misses={counters['misses']}"
        )

    # A tenant that would blow the global cap is refused up front —
    # no noise drawn, nothing spent.
    try:
        budget.spend(10.0, label="tenant over budget")
        session.release(k=100, epsilon=10.0)
    except BudgetExceededError as error:
        print(f"\nover-budget request refused: {error}")
    print(f"epsilon spent {budget.spent:g} of {budget.epsilon:g}")


if __name__ == "__main__":
    main()
