"""The default in-process backend over the packed-bitmap kernels.

:class:`BitmapBackend` answers the counting primitives with the
same kernels the library has always used — the CSR item supports of
:class:`~repro.datasets.transactions.TransactionDatabase`, the packed
:class:`~repro.fim.counting.ItemBitmaps` pair sweeps, and the
scatter-add bin kernel — but *pools* the expensive intermediates so
repeated queries reuse them:

* the item-support vector is computed once;
* bitmap pools are memoized keyed by their (frozen) item set.

The backend is exact and stateless from the caller's point of view
(the database is immutable), so memoization never changes results.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.engine.backend import CountingBackend
from repro.fim.counting import ItemBitmaps, bin_counts_for_items

__all__ = ["BitmapBackend"]


class BitmapBackend(CountingBackend):
    """Single-process bitmap/tid-list counting (the library default).

    Parameters
    ----------
    database:
        The transactions to count over.
    max_pools:
        Cap on memoized bitmap pools (each pool is
        ``|items| × N/8`` bytes); the **least recently used** pool is
        evicted first — any hit refreshes recency, so a hot pool
        survives a stream of one-off pools.
    """

    def __init__(
        self, database: TransactionDatabase, max_pools: int = 8
    ) -> None:
        self._database = database
        self._max_pools = int(max_pools)
        self._pools: Dict[FrozenSet[int], ItemBitmaps] = {}
        self._item_supports: Optional[np.ndarray] = None
        #: Number of ItemBitmaps pools built so far (cache telemetry;
        #: the session tests assert warm releases do not grow this).
        self.pools_built = 0

    @property
    def database(self) -> TransactionDatabase:
        return self._database

    # -- streaming ingestion --------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` by extending packed rows, not rebuilding.

        Every memoized :class:`ItemBitmaps` pool grows in place by
        packing only the new transactions (see
        :meth:`ItemBitmaps.extend`), the item-support vector is
        advanced by adding ``delta``'s supports, and the database
        reference moves to the copy-on-write concatenation — so a warm
        backend stays warm across an ingest batch.
        """
        self._validate_delta(delta)
        extended = self._database.extended(delta)
        for pool in self._pools.values():
            pool.extend(delta)
        if self._item_supports is not None:
            self._item_supports = (
                self._item_supports + delta.item_supports()
            )
        self._database = extended

    # -- bitmap pooling -------------------------------------------------
    def bitmaps(self, items: Sequence[int]) -> ItemBitmaps:
        """A (memoized) packed bitmap pool over exactly ``items``."""
        key = frozenset(int(item) for item in items)
        pool = self._pools.get(key)
        if pool is None:
            pool = ItemBitmaps(self._database, sorted(key))
            self.pools_built += 1
            if self._max_pools and len(self._pools) >= self._max_pools:
                coldest = next(iter(self._pools))
                del self._pools[coldest]
        else:
            del self._pools[key]  # reinsert below: mark most recent
        self._pools[key] = pool
        return pool

    # -- the primitives -------------------------------------------------
    def item_supports(self) -> np.ndarray:
        if self._item_supports is None:
            self._item_supports = self._database.item_supports()
        return self._item_supports.copy()

    def pairwise_supports(
        self, items: Sequence[int]
    ) -> Dict[Tuple[int, int], int]:
        return self.bitmaps(items).pairwise_supports()

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        return [
            bin_counts_for_items(self._database, basis) for basis in bases
        ]
