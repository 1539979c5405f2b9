"""Sharded parallel counting with bounded per-shard memory.

:class:`ShardedBackend` partitions the ``N`` transactions into
fixed-size contiguous shards, materializes each shard as its own
:class:`~repro.datasets.transactions.TransactionDatabase` (sharing the
row arrays — no transaction data is copied), and answers every
counting primitive by running a per-shard kernel (the ``shard_*``
functions below) on a thread pool and merging in the caller:

* item-support vectors and bin histograms add elementwise (the bins of
  a basis partition each shard exactly as they partition ``D``);
* pairwise/conjunction supports add as scalars per key.

Counts are additive over any partition of the transactions, so the
merged answers equal the single-scan answers exactly — the
equivalence test-suite pins this against both
:class:`~repro.engine.bitmap.BitmapBackend` and the naive oracle.

The numpy kernels release the GIL in their hot loops and the shard
databases live in process memory, so dispatch is free; the
Python-level per-shard work (bitmap row packing, dict merges)
serializes on the GIL, which caps the speedup below the core count.
Per-query working memory is one shard's scratch per pool thread
instead of one full-database scratch, which is what makes long bases
feasible on large ``N``.

**Out-of-core (mmap) plane.**  Instead of an in-memory database, the
backend can be built over a :class:`~repro.engine.mmap.MmapShardStore`
(``ShardedBackend.from_store`` or the ``store=`` kwarg): shards then
live in memory-mapped segment files under the state dir, fetched
through the store's budget-bounded LRU cache.  Counts are
bit-identical to the in-memory plane (same kernels, same additive
merges, exact integers); only residency changes.  The full
:attr:`database` is copied into RAM only if something asks for it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_itemset,
)
from repro.engine.backend import CountingBackend
from repro.errors import ValidationError
from repro.fim.counting import ItemBitmaps, bin_counts_for_items

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.engine.mmap import MmapShardStore

__all__ = ["ShardedBackend", "DEFAULT_SHARD_SIZE"]

#: Default transactions per shard — large enough that the per-shard
#: numpy kernels amortize Python dispatch, small enough that a pool
#: thread's scratch stays in cache-friendly territory.
DEFAULT_SHARD_SIZE = 65_536

_T = TypeVar("_T")


# ----------------------------------------------------------------------
# Per-shard kernels
# ----------------------------------------------------------------------
def shard_item_supports(shard: TransactionDatabase) -> np.ndarray:
    """Single-item supports of one shard."""
    return shard.item_supports()


def shard_pairwise_supports(
    shard: TransactionDatabase, pool: Sequence[int]
) -> Dict[Tuple[int, int], int]:
    """All pairwise supports over ``pool`` within one shard."""
    return ItemBitmaps(shard, pool).pairwise_supports()


def shard_conjunction_batch(
    shard: TransactionDatabase, itemsets: Sequence[Sequence[int]]
) -> List[int]:
    """Support of every itemset in ``itemsets`` within one shard."""
    return [shard.support(itemset) for itemset in itemsets]


def shard_bin_counts_batch(
    shard: TransactionDatabase, bases: Sequence[Sequence[int]]
) -> List[np.ndarray]:
    """Bin histogram of every basis in ``bases`` within one shard."""
    return [bin_counts_for_items(shard, basis) for basis in bases]


def shard_extension_supports(
    shard: TransactionDatabase,
    base: Sequence[int],
    candidates: Sequence[int],
) -> np.ndarray:
    """Supports of ``base ∧ {c}`` for every candidate, one shard.

    One vectorized AND+popcount sweep over a bitmap pool covering the
    base and the candidates — the same kernel the exact top-k miner
    uses per heap pop.
    """
    pool = sorted({int(item) for item in base}
                  | {int(item) for item in candidates})
    bitmaps = ItemBitmaps(shard, pool)
    base_row = bitmaps.conjunction_row(sorted({int(i) for i in base}))
    return bitmaps.extension_supports(base_row, candidates)


class ShardedBackend(CountingBackend):
    """Partitioned parallel counting over fixed-size transaction shards.

    Parameters
    ----------
    database:
        The transactions to count over.
    shard_size:
        Transactions per shard (the last shard may be smaller).
    max_workers:
        Thread-pool width; defaults to ``min(num_shards, cpu_count)``.
        ``1`` degenerates to a sequential scan (useful for debugging).
    store:
        A spilled :class:`~repro.engine.mmap.MmapShardStore` to count
        over instead of ``database`` (see :meth:`from_store`).
    """

    def __init__(
        self,
        database: Optional[TransactionDatabase] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_workers: Optional[int] = None,
        store: Optional["MmapShardStore"] = None,
    ) -> None:
        if shard_size < 1:
            raise ValidationError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        if database is None and store is None:
            raise ValidationError(
                "ShardedBackend needs a database or an mmap shard store"
            )
        self._store = store
        self._database = database
        # The store's segmentation is the sharding; a conflicting
        # shard_size would silently change shard boundaries.
        self._shard_size = (
            store.rows_per_segment if store is not None
            else int(shard_size)
        )
        self._max_workers = max_workers
        self._shards: Optional[List[TransactionDatabase]] = None
        self._item_supports: Optional[np.ndarray] = None

    @classmethod
    def from_store(
        cls,
        store: "MmapShardStore",
        max_workers: Optional[int] = None,
    ) -> "ShardedBackend":
        """A backend over a spilled shard store (the mmap data plane).

        The store's segments *are* the shards; queries open them
        through its budget-bounded cache.  ``close()`` closes the store
        too — mapped segments are this backend's OS resources.
        """
        return cls(max_workers=max_workers, store=store)

    @property
    def database(self) -> TransactionDatabase:
        """The full database.  On the mmap plane it is copied out of
        the segments into RAM on first use and then kept — avoid it on
        hot paths; queries never need it, and :attr:`num_items` /
        :attr:`num_transactions` answer without it."""
        if self._database is None:
            self._database = self._store.database()
        return self._database

    @property
    def store(self) -> Optional["MmapShardStore"]:
        """The spill store, or ``None`` on the in-memory plane."""
        return self._store

    @property
    def num_items(self) -> int:
        if self._store is not None:
            return self._store.num_items
        return self.database.num_items

    @property
    def num_transactions(self) -> int:
        if self._store is not None:
            return self._store.num_rows
        return self.database.num_transactions

    @property
    def num_shards(self) -> int:
        if self._store is not None:
            return max(self._store.num_segments, 1)
        return len(self._ensure_shards())

    @property
    def data_plane(self) -> str:
        """``"mmap"`` when spilled to segment files, else ``"memory"``."""
        return "mmap" if self._store is not None else "memory"

    def data_plane_stats(self) -> Dict[str, object]:
        """Residency telemetry for ``/healthz`` (plane + store stats)."""
        stats: Dict[str, object] = {
            "plane": self.data_plane,
            "shards": self.num_shards,
        }
        if self._store is not None:
            stats.update(self._store.stats())
        return stats

    # -- streaming ingestion --------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` by growing the tail shard, not resharding.

        Existing full shards are untouched (their warm per-shard
        indexes stay valid); the last, partially filled shard is
        extended with the new rows (≤ one shard's worth of work, its
        tid-list index merged rather than rebuilt), and any remaining
        delta rows form new tail shards.  Every shard then views the
        extended database's arrays, so the rows are held once.  The
        cached item-support vector is advanced by adding ``delta``'s
        supports.
        """
        self._validate_delta(delta)
        if self._store is not None:
            self._extend_store(delta)
            return
        extended = self._database.extended(delta)
        if self._shards is not None and delta.num_transactions:
            count = delta.num_transactions
            start = 0
            last = self._shards[-1]
            if last.num_transactions < self._shard_size:
                start = min(self._shard_size - last.num_transactions, count)
                self._shards[-1] = last.extended(delta.slice(0, start))
            for begin in range(start, count, self._shard_size):
                self._shards.append(
                    delta.slice(begin, begin + self._shard_size)
                )
            # Move every shard onto the extended arrays, warm indexes
            # and all: the old database's and delta's arrays can then
            # be freed, so the rows are held once, not twice.
            self._shards = [
                shard.moved_to(extended.items[base: base + shard.total_size])
                for shard, base in zip(
                    self._shards, extended.offsets[:: self._shard_size]
                )
            ]
        if self._item_supports is not None:
            self._item_supports = (
                self._item_supports + delta.item_supports()
            )
        self._database = extended

    def _extend_store(self, delta: TransactionDatabase) -> None:
        """Mmap-plane extend: append to the spilled segments.

        The store rewrites only its partial tail segment (atomically,
        under a bumped generation) and adds new segments for the rest.
        """
        if not delta.num_transactions:
            return
        self._store.extend(delta)
        if self._item_supports is not None:
            self._item_supports = (
                self._item_supports + delta.item_supports()
            )
        # A materialized full database is stale now; it is copied out
        # of the segments again only if something asks for it.
        self._database = None

    # -- shard plumbing -------------------------------------------------
    def _ensure_shards(self) -> List[TransactionDatabase]:
        """Build the shard databases lazily (items are shared, not
        copied — each shard is one slice of the CSR arrays)."""
        if self._shards is None:
            n = self._database.num_transactions
            # An empty database is its own single (empty) shard.
            self._shards = [
                self._database.slice(start, start + self._shard_size)
                for start in range(0, n, self._shard_size)
            ] or [self._database]
        return self._shards

    def _workers_for(self, num_shards: int) -> int:
        workers = self._max_workers
        if workers is None:
            workers = min(num_shards, os.cpu_count() or 1)
        return max(1, workers)

    def _map_shards(
        self, task: Callable[[TransactionDatabase], _T]
    ) -> List[_T]:
        """Fan-out: ``task`` on every shard, merged later.

        On the mmap plane shards are fetched per task through the
        store's LRU cache instead of being held in a list, so the
        resident set stays inside the store's memory budget even while
        a query sweeps every shard.
        """
        if self._store is not None:
            count = self._store.num_segments
            if count == 0:
                return [task(self._store.database())]
            indices = range(count)

            def run(index: int) -> _T:
                return task(self._store.shard_database(index))

            workers = self._workers_for(count)
            if workers <= 1 or count <= 1:
                return [run(index) for index in indices]
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run, indices))
        shards = self._ensure_shards()
        workers = self._workers_for(len(shards))
        if workers <= 1 or len(shards) <= 1:
            return [task(shard) for shard in shards]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, shards))

    def _map_kernel(
        self, kernel: Callable[..., _T], *args: object
    ) -> List[_T]:
        """Run a per-shard ``kernel(shard, *args)`` on every shard."""
        return self._map_shards(lambda shard: kernel(shard, *args))

    # -- the four primitives --------------------------------------------
    def item_supports(self) -> np.ndarray:
        if self._item_supports is None:
            parts = self._map_kernel(shard_item_supports)
            self._item_supports = np.sum(parts, axis=0, dtype=np.int64)
        return self._item_supports.copy()

    def pairwise_supports(
        self, items: Sequence[int]
    ) -> Dict[Tuple[int, int], int]:
        pool = canonical_itemset(items)
        parts = self._map_kernel(shard_pairwise_supports, pool)
        merged: Dict[Tuple[int, int], int] = {}
        for part in parts:
            for pair, count in part.items():
                merged[pair] = merged.get(pair, 0) + count
        return merged

    def conjunction_support(self, items: Iterable[int]) -> int:
        return self.conjunction_supports([items])[0]

    def bin_counts(self, basis: Sequence[int]) -> np.ndarray:
        return self.bin_counts_batch([basis])[0]

    # -- batched primitives ---------------------------------------------
    def conjunction_supports(
        self, itemsets: Sequence[Iterable[int]]
    ) -> List[int]:
        """One fan-out for the whole batch: each shard task answers
        every itemset over its shard, the caller sums per itemset."""
        canonical = [canonical_itemset(itemset) for itemset in itemsets]
        if not canonical:
            return []
        parts = self._map_kernel(shard_conjunction_batch, canonical)
        return [
            int(sum(part[index] for part in parts))
            for index in range(len(canonical))
        ]

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

    def extension_supports(
        self, base: Sequence[int], candidates: Sequence[int]
    ) -> np.ndarray:
        candidates = [int(item) for item in candidates]
        if not candidates:
            return np.zeros(0, dtype=np.int64)
        parts = self._map_kernel(
            shard_extension_supports,
            tuple(int(item) for item in base),
            tuple(candidates),
        )
        return np.sum(parts, axis=0, dtype=np.int64)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Close the spill store, if any (idempotent).

        On the mmap plane the store's cached mappings are dropped and
        the store is closed (its files stay on disk — reopen with
        ``MmapShardStore.open``).  An in-memory backend stays
        queryable.
        """
        if self._store is not None:
            self._store.close()

    def __repr__(self) -> str:
        source = (
            repr(self._store)
            if self._store is not None
            else repr(self._database)
        )
        return (
            f"ShardedBackend({source}, "
            f"shard_size={self._shard_size}, "
            f"max_workers={self._max_workers})"
        )
