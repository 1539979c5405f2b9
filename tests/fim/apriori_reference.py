"""The Apriori algorithm (Agrawal & Srikant, VLDB 1994), as a test oracle.

Level-wise mining of all itemsets with support ≥ a threshold, exploiting
the anti-monotonicity of support: every subset of a frequent itemset is
frequent (paper Section 2.2).  Candidate generation and subset pruning
follow the classic join step; support counting intersects the
database's vertical tid-lists.

FP-Growth (:func:`repro.fim.fpgrowth.fpgrowth`) is the library's one
exact miner.  Apriori shares no code with it, which makes it the
independent oracle ``test_miners.py`` checks FP-Growth against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.itemsets import Itemset

MiningResult = Dict[Itemset, int]


def apriori(
    database: TransactionDatabase,
    min_support: int,
    max_length: Optional[int] = None,
) -> MiningResult:
    """Mine all itemsets with support count ≥ ``min_support``.

    Same contract as :func:`repro.fim.fpgrowth.fpgrowth`: returns a
    mapping itemset (sorted tuple) → support count, restricted to at
    most ``max_length`` items when that is given.  ``min_support`` must
    be at least 1 — a threshold of 0 would enumerate the powerset.
    """
    if min_support < 1:
        raise ValidationError(
            f"min_support must be >= 1, got {min_support}"
        )
    if max_length is not None and max_length < 1:
        raise ValidationError(
            f"max_length must be >= 1, got {max_length}"
        )

    result: MiningResult = {}
    supports = database.item_supports()
    level: List[Itemset] = []
    tidlists: Dict[Itemset, np.ndarray] = {}
    for item in np.flatnonzero(supports >= min_support):
        itemset = (int(item),)
        result[itemset] = int(supports[item])
        level.append(itemset)
        tidlists[itemset] = database.tidlist(int(item))

    size = 1
    while level:
        if max_length is not None and size >= max_length:
            break
        next_level: List[Itemset] = []
        next_tidlists: Dict[Itemset, np.ndarray] = {}
        for candidate in apriori_join(level):
            merged = np.intersect1d(
                tidlists[candidate[:-1]],
                database.tidlist(candidate[-1]),
                assume_unique=True,
            )
            count = int(merged.size)
            if count >= min_support:
                result[candidate] = count
                next_level.append(candidate)
                next_tidlists[candidate] = merged
        level = next_level
        tidlists = next_tidlists
        size += 1
    return result


def frequent_itemsets_sorted(
    mined: MiningResult,
) -> List[Tuple[Itemset, int]]:
    """Sort a mining result by (−support, itemset) — the library-wide
    deterministic tie-break order."""
    return sorted(mined.items(), key=lambda pair: (-pair[1], pair[0]))


def apriori_join(frequent: Sequence[Itemset]) -> List[Itemset]:
    """Apriori candidate generation: join ``L_{n-1}`` with itself.

    Two (n−1)-itemsets sharing their first n−2 items join into an
    n-candidate; candidates with an infrequent (n−1)-subset are pruned
    (the Apriori property, paper Section 2.2).
    """
    if not frequent:
        return []
    size = len(frequent[0])
    if any(len(itemset) != size for itemset in frequent):
        raise ValidationError("all itemsets in a level must share a size")
    frequent_set = set(frequent)
    ordered = sorted(frequent_set)
    candidates: List[Itemset] = []
    for index, left in enumerate(ordered):
        for right in ordered[index + 1:]:
            if left[:-1] != right[:-1]:
                break
            candidate = left + (right[-1],)
            if has_all_subsets(candidate, frequent_set):
                candidates.append(candidate)
    return candidates


def has_all_subsets(candidate: Itemset, frequent: set) -> bool:
    """True iff every (n−1)-subset of ``candidate`` is in ``frequent``."""
    size = len(candidate)
    if size <= 1:
        return True
    return all(
        candidate[:index] + candidate[index + 1:] in frequent
        for index in range(size)
    )
