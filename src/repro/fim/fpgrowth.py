"""FP-Growth: frequent-itemset mining without candidate generation.

Recursive pattern-growth over the FP-tree (Han, Pei, Yin & Mao, 2004;
cited as [22] in the paper).  This is the library's one exact
threshold miner: shared prefixes are counted once, so it stays fast on
dense data.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.counting import database_of
from repro.fim.fptree import FPTree
from repro.fim.itemsets import Itemset

MiningResult = Dict[Itemset, int]


def fpgrowth(
    database: TransactionDatabase,
    min_support: int,
    max_length: Optional[int] = None,
    backend=None,
) -> MiningResult:
    """Mine all itemsets with support ≥ ``min_support`` via FP-Growth.

    Returns a mapping itemset (sorted tuple) → support count.
    ``min_support`` is an absolute count and must be at least 1 (a
    threshold of 0 would enumerate the powerset).  ``max_length``, when
    given, keeps only itemsets of at most that many items.  The optional
    counting ``backend`` (or a backend passed in the ``database`` slot)
    supplies the item frequencies; tree construction streams the
    unified database.
    """
    if min_support < 1:
        raise ValidationError(
            f"min_support must be >= 1, got {min_support}"
        )
    if max_length is not None and max_length < 1:
        raise ValidationError(
            f"max_length must be >= 1, got {max_length}"
        )

    source = backend if backend is not None else database
    database = database_of(source)

    supports = source.item_supports()
    frequent_items = [
        int(item) for item in np.flatnonzero(supports >= min_support)
    ]
    # Root-to-leaf order: descending support, item id as tie-break.
    frequent_items.sort(key=lambda item: (-int(supports[item]), item))
    tree = FPTree(frequent_items)
    for transaction in database:
        tree.insert(transaction)

    result: MiningResult = {}
    _mine(tree, (), min_support, max_length, result)
    return result


def _mine(
    tree: FPTree,
    suffix: Itemset,
    min_support: int,
    max_length: Optional[int],
    result: MiningResult,
) -> None:
    if max_length is not None and len(suffix) >= max_length:
        return

    single = tree.single_path()
    if single is not None:
        _mine_single_path(single, suffix, min_support, max_length, result)
        return

    # Process items leaf-to-root (ascending support) as in the original
    # algorithm; order does not affect the output set.
    for item in reversed(tree.item_order):
        total = tree.item_totals.get(item, 0)
        if total < min_support:
            continue
        new_suffix = tuple(sorted(suffix + (item,)))
        result[new_suffix] = total
        if max_length is not None and len(new_suffix) >= max_length:
            continue
        base = tree.conditional_pattern_base(item)
        conditional_totals: Dict[int, int] = {}
        for path, count in base:
            for path_item in path:
                conditional_totals[path_item] = (
                    conditional_totals.get(path_item, 0) + count
                )
        kept = [
            path_item
            for path_item, count in conditional_totals.items()
            if count >= min_support
        ]
        if not kept:
            continue
        kept.sort(key=lambda it: (-conditional_totals[it], it))
        conditional_tree = FPTree(kept)
        for path, count in base:
            conditional_tree.insert(path, count)
        _mine(conditional_tree, new_suffix, min_support, max_length, result)


def _mine_single_path(
    path: List[Tuple[int, int]],
    suffix: Itemset,
    min_support: int,
    max_length: Optional[int],
    result: MiningResult,
) -> None:
    """Enumerate subsets of a single-chain tree directly.

    The support of a subset of the chain is the count of its deepest
    node (counts are non-increasing along the chain).
    """
    eligible = [(item, count) for item, count in path if count >= min_support]
    budget = len(eligible)
    if max_length is not None:
        budget = min(budget, max_length - len(suffix))
    for size in range(1, budget + 1):
        for combo in combinations(range(len(eligible)), size):
            support = eligible[combo[-1]][1]
            if support < min_support:
                continue
            items = suffix + tuple(eligible[index][0] for index in combo)
            result[tuple(sorted(items))] = support
