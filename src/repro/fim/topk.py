"""Exact frequent itemset miners over packed item rows.

Both miners count with one :class:`repro.fim.counting.ItemBitmaps`
pool: the support of ``X ∪ {i}`` for every candidate ``i`` at once is
one vectorized AND+popcount sweep of ``X``'s row against the
candidates' rows.  Children extend an itemset only with larger item
ids, so each itemset is generated once.

* :func:`top_k_itemsets` — best-first lattice search: a max-heap over
  candidate itemsets keyed by (−support, itemset), so the heap maximum
  is always the globally next-most-frequent itemset.  Support is
  anti-monotone, so when an itemset is popped nothing later can beat
  it — after ``k`` pops the answer is exact.  The search universe is
  pre-pruned to items whose own support reaches the support of the
  k-th most frequent *item*: any itemset containing a rarer item is
  dominated by the k guaranteed singletons.
* :func:`frequent_itemsets` — every itemset above a support floor
  (optionally of bounded length), walked depth-first, so memory is one
  row per level rather than one per frontier itemset.

These are the library's ground-truth oracles: the utility metrics
(FNR, relative error), GetLambda's ``f_{k·η}``, the TF baseline's
``f_k`` and its explicit candidate set, and the θ-basis check all
derive from them.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.counting import ItemBitmaps, database_of
from repro.fim.itemsets import Itemset

TopKResult = List[Tuple[Itemset, int]]
MiningResult = Dict[Itemset, int]


def top_k_itemsets(
    database: TransactionDatabase,
    k: int,
    max_length: Optional[int] = None,
) -> TopKResult:
    """Return the ``k`` most frequent itemsets with their supports.

    Output is sorted by (−support, itemset); ties are therefore
    deterministic.  If the database admits fewer than ``k`` non-empty
    itemsets (tiny vocabularies), all of them are returned.

    Parameters
    ----------
    k:
        Number of itemsets to return (≥ 1).
    max_length:
        If given, restrict to itemsets of at most this many items (the
        TF baseline's candidate family, paper Section 3).
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if max_length is not None and max_length < 1:
        raise ValidationError(f"max_length must be >= 1, got {max_length}")

    database = database_of(database)
    supports = database.item_supports()
    universe = _pruned_universe(supports, k)
    if not universe:
        return []
    bitmaps = ItemBitmaps(database, universe)
    position_of = {item: index for index, item in enumerate(universe)}

    # Heap entries: (−support, itemset). Itemsets are tuples of items
    # sorted ascending; children only append larger universe positions.
    heap: List[Tuple[int, Itemset]] = [
        (-int(supports[item]), (item,)) for item in universe
    ]
    heapq.heapify(heap)

    result: TopKResult = []
    while heap and len(result) < k:
        negative_support, itemset = heapq.heappop(heap)
        support = -negative_support
        if support <= 0:
            break
        result.append((itemset, support))
        if max_length is not None and len(itemset) >= max_length:
            continue
        last_position = position_of[itemset[-1]]
        extensions = universe[last_position + 1:]
        if not extensions:
            continue
        base_row = bitmaps.conjunction_row(itemset)
        extension_supports = bitmaps.extension_supports(
            base_row, extensions
        )
        for offset, extension_support in enumerate(extension_supports):
            if extension_support > 0:
                child = itemset + (extensions[offset],)
                heapq.heappush(heap, (-int(extension_support), child))
    return result


def frequent_itemsets(
    database: TransactionDatabase,
    min_support: int,
    max_length: Optional[int] = None,
) -> MiningResult:
    """Every itemset with support ≥ ``min_support``, with its support.

    Returns a dict itemset (sorted tuple) → support count whose keys
    come in ascending tuple order.  ``min_support`` is an absolute
    count and must be at least 1 (a threshold of 0 would enumerate the
    powerset).  ``max_length``, when given, keeps only itemsets of at
    most that many items; ``max_length=1`` is a mask on the item
    supports and builds no bitmap pool.
    """
    if min_support < 1:
        raise ValidationError(
            f"min_support must be >= 1, got {min_support}"
        )
    if max_length is not None and max_length < 1:
        raise ValidationError(
            f"max_length must be >= 1, got {max_length}"
        )

    database = database_of(database)
    supports = database.item_supports()
    frequent = np.flatnonzero(supports >= min_support)
    if max_length == 1:
        return {(int(item),): int(supports[item]) for item in frequent}
    items = [int(item) for item in frequent]
    result: MiningResult = {}
    if items:
        _grow(
            ItemBitmaps(database, items), (), None, items,
            supports[frequent], min_support,
            max_length if max_length is not None else len(items),
            result,
        )
    return result


def _grow(
    bitmaps: ItemBitmaps,
    prefix: Itemset,
    prefix_row: Optional[np.ndarray],
    candidates: List[int],
    candidate_supports: np.ndarray,
    min_support: int,
    max_length: int,
    result: MiningResult,
) -> None:
    """Emit ``prefix + (c,)`` for every frequent candidate ``c``, each
    followed by its own extensions.

    ``candidates`` ascend, so this pre-order walk emits keys in
    ascending tuple order.  A child extends only with the candidates
    after it that were frequent beside ``prefix``: any other extension
    is infrequent by anti-monotonicity.  ``prefix_row`` is ``None`` for
    the empty prefix.
    """
    for index, item in enumerate(candidates):
        itemset = prefix + (item,)
        result[itemset] = int(candidate_supports[index])
        later = candidates[index + 1:]
        if len(itemset) >= max_length or not later:
            continue
        row = bitmaps.row(item)
        if prefix_row is not None:
            row = row & prefix_row
        counts = bitmaps.extension_supports(row, later)
        kept = np.flatnonzero(counts >= min_support)
        if kept.size:
            _grow(
                bitmaps, itemset, row, [later[i] for i in kept],
                counts[kept], min_support, max_length, result,
            )


def _pruned_universe(supports: np.ndarray, k: int) -> List[int]:
    """Items that could appear in a top-``k`` itemset, sorted by id.

    Keeps items with support ≥ support of the k-th most frequent item
    (all items when fewer than k have positive support).  Rarer items
    are dominated: any itemset containing one has support below at
    least k singleton itemsets.
    """
    positive = np.flatnonzero(supports > 0)
    if positive.size == 0:
        return []
    if positive.size <= k:
        return [int(item) for item in np.sort(positive)]
    order = np.argsort(-supports[positive], kind="stable")
    threshold = int(supports[positive[order[k - 1]]])
    kept = positive[supports[positive] >= threshold]
    return [int(item) for item in np.sort(kept)]


def kth_frequency(
    database: TransactionDatabase,
    k: int,
    max_length: Optional[int] = None,
) -> float:
    """Frequency of the k-th most frequent itemset (paper's ``f_k``).

    Returns 0.0 when fewer than ``k`` itemsets exist.
    """
    top = top_k_itemsets(database, k, max_length=max_length)
    if len(top) < k:
        return 0.0
    return top[k - 1][1] / float(database.num_transactions)


def exact_topk_itemset_set(
    database: TransactionDatabase,
    k: int,
    max_length: Optional[int] = None,
) -> set:
    """The top-``k`` itemsets as a set (for FNR computations)."""
    return {
        itemset
        for itemset, _ in top_k_itemsets(database, k, max_length=max_length)
    }


def unique_items_in_topk(top: Sequence[Tuple[Itemset, int]]) -> List[int]:
    """Distinct items appearing in a top-k result (the paper's λ)."""
    return sorted({item for itemset, _ in top for item in itemset})


def pairs_in_topk(top: Sequence[Tuple[Itemset, int]]) -> List[Itemset]:
    """Distinct size-2 itemsets among a top-k result (paper's λ₂)."""
    return sorted(
        {itemset for itemset, _ in top if len(itemset) == 2}
    )


def size_n_in_topk(
    top: Sequence[Tuple[Itemset, int]], size: int
) -> List[Itemset]:
    """Distinct size-``size`` itemsets among a top-k result."""
    return sorted({itemset for itemset, _ in top if len(itemset) == size})
