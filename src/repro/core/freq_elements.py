"""GetFreqElements — paper Algorithm 3, lines 29–40.

Privately selects the λ highest-frequency elements of a candidate pool
``U`` (single items in Step 2, pairs of frequent items in Step 3) by λ
rounds of the exponential mechanism without replacement, each round
spending ε/λ.

Faithfulness note (see DESIGN.md): the pseudocode's sampling weight is
``e^{f·ε/λ}``.  Read with ``f`` as a *fraction* this is dimensionally
inconsistent with the rest of the paper (GetLambda multiplies by N, TF
uses ``exp(εN·f/4k)``); read with ``f`` as a *support count* it is the
exponential mechanism with quality = count, sensitivity 1, and the
**one-sided** improvement of Section 2.1 (adding a transaction can only
raise counts), i.e. no factor-2 loss.  We implement the latter.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.dp.exponential import exponential_mechanism_top_k
from repro.dp.rng import RngLike, ensure_rng
from repro.engine.backend import CountingBackend, resolve_backend
from repro.errors import ValidationError
from repro.fim.itemsets import Itemset, canonical_itemset


def select_top_by_count(
    counts: np.ndarray,
    how_many: int,
    epsilon: float,
    rng: RngLike = None,
) -> List[int]:
    """Core of GetFreqElements: pick ``how_many`` indices, ε-DP total.

    ``counts`` are the support counts of the candidates (quality
    function, sensitivity 1, one-sided).  Selection is without
    replacement; each of the ``how_many`` draws uses ε/how_many.
    """
    if how_many < 1:
        raise ValidationError(f"how_many must be >= 1, got {how_many}")
    counts = np.asarray(counts, dtype=float)
    return exponential_mechanism_top_k(
        counts,
        k=how_many,
        epsilon_total=epsilon,
        sensitivity=1.0,
        one_sided=True,
        rng=rng,
    )


def get_frequent_items(
    database: TransactionDatabase,
    how_many: int,
    epsilon: float,
    rng: RngLike = None,
    backend: CountingBackend = None,
) -> List[int]:
    """Step 2: privately select the ``how_many`` most frequent items.

    The candidate pool is the whole public vocabulary ``I``.  Returns
    item ids sorted by selection order (most confident first).  Item
    supports are counted through ``backend`` (default
    :class:`~repro.engine.bitmap.BitmapBackend`).
    """
    backend = resolve_backend(database, backend)
    if how_many > backend.num_items:
        raise ValidationError(
            f"cannot select {how_many} items from a vocabulary of "
            f"{backend.num_items}"
        )
    counts = backend.item_supports().astype(float)
    indices = select_top_by_count(counts, how_many, epsilon, rng)
    return [int(index) for index in indices]


def get_frequent_pairs(
    database: TransactionDatabase,
    items: Sequence[int],
    how_many: int,
    epsilon: float,
    rng: RngLike = None,
    backend: CountingBackend = None,
) -> List[Itemset]:
    """Step 3: privately select frequent pairs among ``items``.

    The candidate pool ``U`` is all (λ choose 2) pairs of the selected
    frequent items — small, which is the point of Step 2 (paper
    Section 4.4).  Pair supports are counted exactly once through the
    backend, as one support matrix over the sorted pool (one bitmap
    sweep in the default backend, per-shard matrices added together in
    :class:`~repro.engine.sharded.ShardedBackend`).  Its upper
    triangle, read row by row, lists the pairs in sorted order; those
    counts feed the exponential mechanism.
    """
    pool = canonical_itemset(items)
    if len(pool) < 2:
        raise ValidationError(
            f"need at least 2 items to form pairs, got {len(pool)}"
        )
    firsts, seconds = np.triu_indices(len(pool), 1)
    if how_many > len(firsts):
        raise ValidationError(
            f"cannot select {how_many} pairs from {len(firsts)} candidates"
        )
    backend = resolve_backend(database, backend)
    counts = backend.pairwise_supports(pool)[firsts, seconds]
    indices = select_top_by_count(counts, how_many, epsilon, rng)
    return [(pool[firsts[index]], pool[seconds[index]]) for index in indices]
