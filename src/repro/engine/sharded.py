"""Sharded parallel counting over a spilled, memory-mapped shard store.

:class:`ShardedBackend` counts over a
:class:`~repro.engine.mmap.MmapShardStore`: the ``N`` transactions
live in fixed-size segment files, each segment one shard, fetched
through the store's budget-bounded LRU cache.  Every counting
primitive runs a per-shard kernel (the ``shard_*`` functions below) on
a thread pool and merges in the caller:

* item-support vectors, pairwise-support matrices and bin histograms
  add elementwise (the bins of a basis partition each shard exactly
  as they partition ``D``).

Counts are additive over any partition of the transactions, so the
merged answers equal the single-scan answers exactly — the
equivalence test-suite pins this against both
:class:`~repro.engine.bitmap.BitmapBackend` and the naive oracle.

The numpy kernels release the GIL in their hot loops; the
Python-level per-shard work (the per-item loop of the pair sweep and
of bitmap row packing) serializes on the GIL, which caps the speedup
below the core count.
Per-query working memory is one shard's scratch per pool thread
instead of one full-database scratch, and the resident set stays
inside the store's memory budget even while a query sweeps every
shard.  The full :attr:`database` is copied into RAM only if
something asks for it.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_itemset,
)
from repro.engine.backend import CountingBackend
from repro.engine.mmap import MmapShardStore
from repro.errors import ValidationError
from repro.fim.counting import ItemBitmaps, bin_counts_for_items

__all__ = ["ShardedBackend"]

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# Per-shard kernels
# ----------------------------------------------------------------------
def shard_item_supports(shard: TransactionDatabase) -> np.ndarray:
    """Single-item supports of one shard."""
    return shard.item_supports()


def shard_pairwise_supports(
    shard: TransactionDatabase, pool: Sequence[int]
) -> np.ndarray:
    """The pairwise-support matrix over ``pool`` within one shard."""
    return ItemBitmaps(shard, pool).pairwise_supports()


def shard_bin_counts_batch(
    shard: TransactionDatabase, bases: Sequence[Sequence[int]]
) -> List[np.ndarray]:
    """Bin histogram of every basis in ``bases`` within one shard."""
    return [bin_counts_for_items(shard, basis) for basis in bases]


class ShardedBackend(CountingBackend):
    """Parallel counting over the shards of a spilled store.

    Parameters
    ----------
    store:
        The :class:`~repro.engine.mmap.MmapShardStore` to count over;
        its segments *are* the shards.  ``close()`` closes the store
        too — mapped segments are this backend's OS resources.
    max_workers:
        Thread-pool width; defaults to ``min(num_shards, cpu_count)``.
        ``1`` degenerates to a sequential scan (useful for debugging).
    """

    def __init__(
        self,
        store: MmapShardStore,
        max_workers: Optional[int] = None,
    ) -> None:
        if not isinstance(store, MmapShardStore):
            raise TypeError(
                f"ShardedBackend counts over an MmapShardStore, got "
                f"{type(store).__name__}; spill the database with "
                f"MmapShardStore.create first, or use BitmapBackend"
            )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._store = store
        self._max_workers = max_workers
        self._database: Optional[TransactionDatabase] = None

    @property
    def database(self) -> TransactionDatabase:
        """The full database, copied out of the segments into RAM on
        first use and then kept — avoid it on hot paths; queries never
        need it, and :attr:`num_items` / :attr:`num_transactions`
        answer without it."""
        if self._database is None:
            self._database = self._store.database()
        return self._database

    @property
    def store(self) -> MmapShardStore:
        """The spill store the shards live in."""
        return self._store

    @property
    def num_items(self) -> int:
        return self._store.num_items

    @property
    def num_transactions(self) -> int:
        return self._store.num_rows

    @property
    def num_shards(self) -> int:
        return max(self._store.num_segments, 1)

    def data_plane_stats(self) -> Dict[str, object]:
        """Residency telemetry for ``/healthz`` (plane + store stats)."""
        return {
            "plane": "mmap",
            "shards": self.num_shards,
            **self._store.stats(),
        }

    # -- streaming ingestion --------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` to the spilled segments, not resharding.

        The store rewrites only its partial tail segment (atomically,
        under its own file name) and adds new segments for the rest;
        full segments are untouched.
        """
        self._validate_delta(delta)
        if not delta.num_transactions:
            return
        self._store.extend(delta)
        # A materialized full database is stale now; it is copied out
        # of the segments again only if something asks for it.
        self._database = None

    # -- shard plumbing -------------------------------------------------
    def _map_shards(
        self, task: Callable[[TransactionDatabase], _T]
    ) -> List[_T]:
        """Fan-out: ``task`` on every shard, merged later.

        Shards are fetched per task through the store's LRU cache
        instead of being held in a list, so the resident set stays
        inside the store's memory budget even while a query sweeps
        every shard.  An empty store is one empty shard.
        """
        count = self._store.num_segments
        if count == 0:
            return [task(self._store.database())]

        def run(index: int) -> _T:
            return task(self._store.shard_database(index))

        workers = self._max_workers or min(count, os.cpu_count() or 1)
        if workers <= 1 or count <= 1:
            return [run(index) for index in range(count)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, range(count)))

    def _map_kernel(
        self, kernel: Callable[..., _T], *args: object
    ) -> List[_T]:
        """Run a per-shard ``kernel(shard, *args)`` on every shard."""
        return self._map_shards(lambda shard: kernel(shard, *args))

    # -- the primitives --------------------------------------------
    def item_supports(self) -> np.ndarray:
        parts = self._map_kernel(shard_item_supports)
        return np.sum(parts, axis=0, dtype=np.int64)

    def pairwise_supports(self, items: Sequence[int]) -> np.ndarray:
        pool = canonical_itemset(items)
        parts = self._map_kernel(shard_pairwise_supports, pool)
        return functools.reduce(np.add, parts)

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        """One fan-out for all bases; histograms add elementwise."""
        bases = [
            tuple(int(item) for item in basis) for basis in bases
        ]
        if not bases:
            return []
        parts = self._map_kernel(shard_bin_counts_batch, bases)
        return [
            np.sum(
                [part[index] for part in parts], axis=0, dtype=np.int64
            )
            for index in range(len(bases))
        ]

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close the spill store (idempotent).

        The store's cached mappings are dropped and the store is
        closed; its files stay on disk until the owner removes the
        directory (the service does so at shutdown).
        """
        self._store.close()

    def __repr__(self) -> str:
        return (
            f"ShardedBackend({self._store!r}, "
            f"max_workers={self._max_workers})"
        )
