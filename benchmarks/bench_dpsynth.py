"""Related-work reproduction — DiffPart (Chen et al. 2011) on the
paper's datasets vs its home turf.

The PrivBasis paper (Section 6): "For the datasets we consider in
this paper, this method generates either an empty synthetic dataset
or a dataset that is highly inaccurate … reasonable performance only
when the number of items is small. (One dataset used [by Chen et al.]
is the MSNBC dataset which has 17 items and about 1 million
transactions.)"

This bench reproduces that analysis quantitatively:

* on an MSNBC-like dataset (17 items, short repetitive transactions)
  DiffPart retains most of the data and nails the top-k;
* on mushroom (119 items, long distinct transactions) and retail
  (16 470 items) the synthetic output is empty or nearly so, and the
  mined top-k is useless — while PrivBasis on the same budget is
  near-exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dpsynth import dpsynth_release, dpsynth_top_k
from repro.core.privbasis import privbasis
from repro.datasets.registry import cached_top_k, load_dataset
from repro.datasets.transactions import TransactionDatabase
from repro.fim.topk import exact_topk_itemset_set

EPSILON = 1.0
K = 50


def _msnbc_like(num_transactions=100_000, num_items=17, seed=7):
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.arange(1, num_items + 1) ** 1.2
    popularity /= popularity.sum()
    rows = []
    for _ in range(num_transactions):
        size = min(num_items, 1 + rng.geometric(0.45))
        rows.append(
            tuple(
                np.sort(
                    rng.choice(
                        num_items, size=size, replace=False, p=popularity
                    )
                )
            )
        )
    return TransactionDatabase(rows, num_items=num_items)


def _evaluate(database, label):
    exact = exact_topk_itemset_set(database, K)
    synthetic = dpsynth_release(database, EPSILON, rng=0)
    mined = dpsynth_top_k(database, K, EPSILON, rng=0)
    hits = sum(1 for itemset, _ in mined if itemset in exact)

    pb = privbasis(database, k=K, epsilon=EPSILON, rng=0)
    pb_hits = sum(
        1 for entry in pb.itemsets if entry.itemset in exact
    )
    return {
        "label": label,
        "num_items": database.num_items,
        "synthetic_n": synthetic.num_transactions,
        "original_n": database.num_transactions,
        "dpsynth_hits": hits,
        "pb_hits": pb_hits,
    }


@pytest.mark.slow
def bench_dpsynth(run_once):
    def measure():
        rows = [_evaluate(_msnbc_like(), "msnbc-like")]
        for name in ("mushroom", "retail"):
            rows.append(_evaluate(load_dataset(name), name))
        return rows

    rows = run_once(measure)

    print()
    print(
        f"DiffPart (Chen et al.) vs PrivBasis "
        f"(k = {K}, eps = {EPSILON})"
    )
    print(
        f"{'dataset':<12} {'|I|':>7} {'synthetic N':>12} "
        f"{'DiffPart hits':>14} {'PB hits':>8}"
    )
    for row in rows:
        synthetic = (
            f"{row['synthetic_n']}/{row['original_n']}"
        )
        print(
            f"{row['label']:<12} {row['num_items']:>7} "
            f"{synthetic:>12} {row['dpsynth_hits']:>11}/{K} "
            f"{row['pb_hits']:>5}/{K}"
        )

    by_label = {row["label"]: row for row in rows}

    # DiffPart's home turf: small vocabulary → works well.
    msnbc = by_label["msnbc-like"]
    assert msnbc["synthetic_n"] > 0.5 * msnbc["original_n"]
    assert msnbc["dpsynth_hits"] >= int(0.7 * K)

    # The paper's datasets: empty or highly inaccurate, exactly as
    # Section 6 claims — while PrivBasis stays near-exact.
    for name in ("mushroom", "retail"):
        row = by_label[name]
        assert row["synthetic_n"] <= 0.05 * row["original_n"]
        assert row["dpsynth_hits"] <= int(0.2 * K)
        assert row["pb_hits"] >= int(0.8 * K)
