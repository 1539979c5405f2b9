"""Micro-benchmarks of the substrates PrivBasis is built on.

Unlike the table/figure benches (one pedantic round each), these are
true pytest-benchmark timings with repeated rounds: the counting
kernel, the subset-sum reconstruction transform, the exact miner, the
clique enumerator, and the two end-to-end private methods.

The paper's complexity claims anchored here:

* BasisFreq is O(w·|D| + w·3^ℓ) — the dataset scan dominates for
  real datasets (ℓ ≤ 12);
* the zeta transform makes reconstruction 2^ℓ·ℓ, not 3^ℓ, in practice;
* exact mining (ground truth) is far more expensive than one private
  release, which is why the registry caches it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.basis import BasisSet
from repro.core.basis_freq import basis_freq
from repro.core.privbasis import privbasis
from repro.baselines.tf import clear_explicit_mining_cache, tf_method
from repro.datasets.registry import load_dataset
from repro.fim.counting import (
    ItemBitmaps,
    bin_counts_for_items,
    superset_sum_transform,
)
from repro.fim.fpgrowth import fpgrowth
from repro.graph.adjacency import UndirectedGraph
from repro.graph.bron_kerbosch import maximal_cliques


@pytest.fixture(scope="module")
def mushroom():
    return load_dataset("mushroom")


@pytest.fixture(scope="module")
def retail():
    return load_dataset("retail")


@pytest.mark.benchmark(group="counting")
def bench_bin_counts_8_items(benchmark, mushroom):
    items = tuple(range(8))
    result = benchmark(bin_counts_for_items, mushroom, items)
    assert int(result.sum()) == mushroom.num_transactions


@pytest.mark.benchmark(group="counting")
def bench_bitmap_construction(benchmark, mushroom):
    items = tuple(range(mushroom.num_items))
    result = benchmark(ItemBitmaps, mushroom, items)
    assert result.num_transactions == mushroom.num_transactions


@pytest.mark.benchmark(group="counting")
def bench_superset_sum_transform_4096_bins(benchmark):
    rng = np.random.default_rng(5)
    bins = rng.poisson(10, size=4096).astype(float)
    result = benchmark(superset_sum_transform, bins)
    assert result[0] == pytest.approx(bins.sum())


@pytest.mark.benchmark(group="mining")
def bench_fpgrowth_mushroom(benchmark, mushroom):
    floor = int(0.4 * mushroom.num_transactions)
    result = benchmark(fpgrowth, mushroom, floor)
    assert len(result) > 50


@pytest.mark.benchmark(group="cliques")
def bench_bron_kerbosch_gnp(benchmark):
    rng = np.random.default_rng(11)
    nodes = list(range(60))
    pairs = [
        (i, j)
        for i in nodes
        for j in nodes[i + 1:]
        if rng.random() < 0.25
    ]
    graph = UndirectedGraph.from_pairs(pairs, nodes=nodes)
    cliques = benchmark(maximal_cliques, graph)
    assert cliques


@pytest.mark.benchmark(group="end-to-end")
def bench_basis_freq_single_basis(benchmark, mushroom):
    basis_set = BasisSet([tuple(range(11))])
    release = benchmark(
        basis_freq, mushroom, basis_set, 50, 1.0, rng=3
    )
    assert len(release.itemsets) == 50


@pytest.mark.benchmark(group="end-to-end")
def bench_privbasis_mushroom(benchmark, mushroom):
    release = benchmark(
        privbasis, mushroom, k=50, epsilon=1.0, rng=3
    )
    assert len(release.itemsets) == 50


@pytest.mark.benchmark(group="end-to-end")
def bench_privbasis_retail_multibasis(benchmark, retail):
    release = benchmark(
        privbasis, retail, k=100, epsilon=1.0, rng=3
    )
    assert len(release.itemsets) == 100


@pytest.mark.benchmark(group="end-to-end")
def bench_tf_mushroom(benchmark, mushroom):
    def run():
        clear_explicit_mining_cache()
        return tf_method(mushroom, k=50, epsilon=1.0, m=2, rng=3)

    release = benchmark(run)
    assert len(release.itemsets) == 50
