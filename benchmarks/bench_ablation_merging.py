"""Ablation — Algorithm 2's greedy EV merge/dissolve phases.

ConstructBasisSet first builds raw maximal cliques plus leftover
triples and then greedily merges/dissolves bases to reduce the
average-case error variance.  This bench runs PrivBasis on the retail
dataset (multi-basis regime) with the greedy phases on and off and
compares:

* the basis-set geometry (width w, length ℓ, analytic average EV);
* end-to-end utility (FNR, RE).

The greedy phases shrink w (whose square multiplies every bin
variance), so the optimized basis set must have an analytic EV no
worse than the raw one, and end-to-end utility should not regress.
"""

from __future__ import annotations

from repro.core.error_variance import average_case_ev
from repro.datasets.registry import load_dataset
from repro.experiments.runner import pb_spec, run_trials

K = 100
EPSILON = 0.5
TRIALS = 5


def bench_ablation_merging(run_once, root_seed):
    database = load_dataset("retail")

    def measure():
        results = {}
        for label, greedy in (("greedy", True), ("raw", False)):
            fnrs, res = run_trials(
                database,
                pb_spec(K, greedy_basis_optimization=greedy),
                K,
                EPSILON,
                trials=TRIALS,
                seed=root_seed,
            )
            results[label] = (
                sum(fnrs) / len(fnrs),
                sum(res) / len(res),
            )
        return results

    results = run_once(measure)

    # Geometry comparison on one deterministic release of each kind.
    from repro.core.privbasis import privbasis

    greedy_release = privbasis(
        database, k=K, epsilon=EPSILON, rng=root_seed
    )
    raw_release = privbasis(
        database,
        k=K,
        epsilon=EPSILON,
        greedy_basis_optimization=False,
        rng=root_seed,
    )

    def geometry(release):
        basis_set = release.basis_set
        queries = [(item,) for item in release.frequent_items] + list(
            release.frequent_pairs
        )
        return (
            basis_set.width,
            basis_set.length,
            average_case_ev(basis_set.bases, queries),
        )

    greedy_geo = geometry(greedy_release)
    raw_geo = geometry(raw_release)

    print()
    print(f"ablation: Algorithm 2 greedy phases on retail "
          f"(k = {K}, eps = {EPSILON}, {TRIALS} trials)")
    print("variant  width  length  analytic-EV  FNR     RE")
    for label, geo in (("greedy", greedy_geo), ("raw", raw_geo)):
        fnr, re = results[label]
        print(
            f"{label:<8} {geo[0]:<6} {geo[1]:<7} {geo[2]:<12.2f} "
            f"{fnr:<7.3f} {re:.4f}"
        )

    # Same seed → the private selections (λ, F, P) are identical, so
    # the analytic EV comparison isolates Algorithm 2 lines 4-5.
    assert greedy_release.frequent_items == raw_release.frequent_items

    # Greedy optimization never makes the analytic objective worse.
    assert greedy_geo[2] <= raw_geo[2] + 1e-9

    # It shrinks (or preserves) the width.
    assert greedy_geo[0] <= raw_geo[0]

    # End-to-end utility must not collapse in either variant, and the
    # greedy variant is at least comparable (generous tolerance: one
    # seed, modest trials).
    assert results["greedy"][0] <= results["raw"][0] + 0.15
