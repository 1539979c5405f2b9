"""Exact (non-private) frequent itemset mining substrate."""

from repro.fim.counting import (
    DEFAULT_MAX_BASIS_LENGTH,
    MAX_BIN_BASIS_LENGTH,
    ItemBitmaps,
    bin_counts_for_items,
    database_of,
    naive_superset_sum,
    superset_sum_transform,
)
from repro.fim.fpgrowth import fpgrowth
from repro.fim.fptree import FPNode, FPTree
from repro.fim.itemsets import (
    Itemset,
    all_nonempty_subsets,
    canonical_itemset,
    format_itemset,
    itemset_to_mask,
    mask_to_itemset,
    subsets_of_size,
)
from repro.fim.topk import (
    exact_topk_itemset_set,
    kth_frequency,
    pairs_in_topk,
    size_n_in_topk,
    top_k_itemsets,
    unique_items_in_topk,
)

__all__ = [
    "DEFAULT_MAX_BASIS_LENGTH",
    "FPNode",
    "FPTree",
    "ItemBitmaps",
    "MAX_BIN_BASIS_LENGTH",
    "Itemset",
    "all_nonempty_subsets",
    "bin_counts_for_items",
    "canonical_itemset",
    "database_of",
    "exact_topk_itemset_set",
    "format_itemset",
    "fpgrowth",
    "itemset_to_mask",
    "kth_frequency",
    "mask_to_itemset",
    "naive_superset_sum",
    "pairs_in_topk",
    "size_n_in_topk",
    "subsets_of_size",
    "superset_sum_transform",
    "top_k_itemsets",
    "unique_items_in_topk",
]
