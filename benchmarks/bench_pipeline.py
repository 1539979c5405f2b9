"""Pipeline benchmark: staging overhead and planner utility.

Two questions about the staged release pipeline:

* **Overhead** — what does the stage/plan/trace machinery cost over a
  hand-inlined monolith?  A local replica of the pre-refactor
  ``privbasis()`` body (direct calls into :mod:`repro.core`, no plan,
  no trace) runs head-to-head against
  :func:`repro.pipeline.planned_release` on one warm backend with
  identical seeds; outputs must be bit-identical, so the wall-time
  delta is pure orchestration cost (typically low single-digit
  percent, dominated by the mechanisms themselves).
* **Planner utility** — does :class:`AdaptivePlanner`'s λ-driven
  reallocation buy accuracy over the paper split on the synthetic
  registry datasets?  FNR/RE per planner, mushroom (single-basis
  regime) and pumsb_star (pairs regime).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke   # CI

``--smoke`` shrinks repeats/trials so CI exercises the full path
(monolith equivalence included) on every push without benchmark-scale
work.
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.core.basis import DEFAULT_MAX_BASIS_LENGTH, single_basis
from repro.core.basis_freq import basis_freq
from repro.core.construct_basis import construct_basis_set
from repro.core.freq_elements import get_frequent_items, get_frequent_pairs
from repro.core.lambda_select import get_lambda
from repro.datasets.registry import load_dataset
from repro.dp.budget import PrivacyBudget
from repro.dp.rng import ensure_rng
from repro.engine.bitmap import BitmapBackend
from repro.experiments.runner import pb_spec, run_trials
from repro.pipeline import (
    DEFAULT_ALPHAS,
    SINGLE_BASIS_LAMBDA,
    AdaptivePlanner,
    PaperPlanner,
    pair_budget_size,
    planned_release,
)

K = 50
EPSILON = 1.0
REPEATS = 30
UTILITY_TRIALS = 5
SEED = 20120827


def monolithic_release(backend, k, epsilon, rng):
    """The pre-refactor ``privbasis()`` body, inlined (paper plan).

    Kept deliberately plan-free and trace-free: this is the baseline
    the staged executor's overhead is measured against, and its
    outputs double as a golden reference (they must match the
    pipeline bit-for-bit under the same seed).
    """
    eta = 1.2 if k <= 100 else 1.1
    generator = ensure_rng(rng)
    budget = PrivacyBudget(epsilon)
    alpha1_eps, alpha2_eps, alpha3_eps = budget.split(DEFAULT_ALPHAS)
    lam = get_lambda(backend, k, alpha1_eps, eta=eta, rng=generator)
    budget.spend(alpha1_eps, "get_lambda")
    lam = min(lam, backend.num_items)
    if lam <= SINGLE_BASIS_LAMBDA:
        items = get_frequent_items(backend, lam, alpha2_eps, rng=generator)
        budget.spend(alpha2_eps, "get_frequent_items")
        basis_set = single_basis(items)
    else:
        lam2 = min(pair_budget_size(lam, k, eta), lam * (lam - 1) // 2)
        if lam2 >= 1:
            beta1_eps = alpha2_eps * lam / (lam + lam2)
            beta2_eps = alpha2_eps - beta1_eps
        else:
            beta1_eps, beta2_eps = alpha2_eps, 0.0
        items = get_frequent_items(backend, lam, beta1_eps, rng=generator)
        budget.spend(beta1_eps, "get_frequent_items")
        pairs = []
        if lam2 >= 1:
            pairs = get_frequent_pairs(
                backend, items, lam2, beta2_eps, rng=generator
            )
            budget.spend(beta2_eps, "get_frequent_pairs")
        basis_set = construct_basis_set(
            items, tuple(sorted(pairs)), DEFAULT_MAX_BASIS_LENGTH
        )
    release = basis_freq(backend, basis_set, k, alpha3_eps, rng=generator)
    budget.spend(alpha3_eps, "basis_freq")
    return release


def time_overhead(database, repeats: int) -> None:
    backend = BitmapBackend(database)
    backend.item_supports()  # warm the item supports outside the timers

    published = [
        (entry.itemset, entry.noisy_count)
        for entry in monolithic_release(
            backend, K, EPSILON, rng=SEED
        ).itemsets
    ]
    staged = [
        (entry.itemset, entry.noisy_count)
        for entry in planned_release(
            backend, k=K, epsilon=EPSILON, rng=SEED
        ).itemsets
    ]
    assert staged == published, (
        "pipeline output diverged from the monolith under a fixed seed"
    )
    print("bit-identical outputs: OK")

    def clock(func) -> list:
        samples = []
        for repeat in range(repeats):
            started = time.perf_counter()
            func(repeat)
            samples.append((time.perf_counter() - started) * 1000.0)
        return samples

    mono = clock(
        lambda i: monolithic_release(backend, K, EPSILON, rng=SEED + i)
    )
    piped = clock(
        lambda i: planned_release(
            backend, k=K, epsilon=EPSILON, rng=SEED + i
        )
    )
    mono_ms = statistics.median(mono)
    piped_ms = statistics.median(piped)
    overhead = (piped_ms - mono_ms) / mono_ms * 100.0
    print(
        f"monolith median {mono_ms:.2f} ms, pipeline median "
        f"{piped_ms:.2f} ms over {repeats} releases "
        f"(overhead {overhead:+.1f}%)"
    )


def planner_utility(dataset: str, trials: int) -> dict:
    database = load_dataset(dataset)
    rows = {}
    for label, planner in (
        ("paper", PaperPlanner()),
        ("adaptive", AdaptivePlanner()),
    ):
        fnrs, res = run_trials(
            database,
            pb_spec(K, planner=planner),
            K,
            EPSILON,
            trials=trials,
            seed=SEED,
        )
        rows[label] = (sum(fnrs) / len(fnrs), sum(res) / len(res))
    print(f"\nplanner utility on {dataset} (k = {K}, eps = {EPSILON}):")
    print(f"{'planner':<10} FNR     RE")
    for label, (fnr, re) in rows.items():
        print(f"{label:<10} {fnr:<7.3f} {re:.4f}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny workload for CI (equivalence + one utility point)",
    )
    arguments = parser.parse_args()
    repeats = 3 if arguments.smoke else REPEATS
    trials = 2 if arguments.smoke else UTILITY_TRIALS

    time_overhead(load_dataset("mushroom"), repeats)
    rows = planner_utility("mushroom", trials)
    # The adaptive planner must stay competitive where it reallocates
    # (single-basis regime): no worse than the paper split + slack.
    assert rows["adaptive"][0] <= rows["paper"][0] + 0.1
    if not arguments.smoke:
        planner_utility("pumsb_star", trials)


if __name__ == "__main__":
    main()
