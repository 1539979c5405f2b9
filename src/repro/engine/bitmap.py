"""The default in-process backend over the packed-bitmap kernels.

:class:`BitmapBackend` answers the counting primitives with the
same kernels the library has always used — the CSR item supports of
:class:`~repro.datasets.transactions.TransactionDatabase`, the packed
:class:`~repro.fim.counting.ItemBitmaps` pair sweep into a support
matrix, and the scatter-add bin kernel.

It is a stateless kernel over its database: every query packs what it
needs afresh and nothing is kept between calls.  Memoizing exact
counts across queries is :class:`~repro.engine.cache.CachedBackend`'s
job, the one memo every release runs on.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_itemset,
)
from repro.engine.backend import CountingBackend
from repro.fim.counting import ItemBitmaps, bin_counts_for_items

__all__ = ["BitmapBackend"]


class BitmapBackend(CountingBackend):
    """Single-process bitmap/tid-list counting (the library default).

    Parameters
    ----------
    database:
        The transactions to count over.
    """

    def __init__(self, database: TransactionDatabase) -> None:
        self._database = database

    @property
    def database(self) -> TransactionDatabase:
        return self._database

    # -- streaming ingestion --------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Move to the copy-on-write concatenation ``database ⧺ delta``
        (:meth:`TransactionDatabase.extended` carries its item supports
        and tid-list index over incrementally)."""
        self._validate_delta(delta)
        self._database = self._database.extended(delta)

    # -- the primitives -------------------------------------------------
    def item_supports(self) -> np.ndarray:
        return self._database.item_supports()

    def pairwise_supports(self, items: Sequence[int]) -> np.ndarray:
        return ItemBitmaps(
            self._database, canonical_itemset(items)
        ).pairwise_supports()

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        return [
            bin_counts_for_items(self._database, basis) for basis in bases
        ]
