"""Sharded parallel counting with bounded per-shard memory.

:class:`ShardedBackend` partitions the ``N`` transactions into
fixed-size contiguous shards, materializes each shard as its own
:class:`~repro.datasets.transactions.TransactionDatabase` (sharing the
row arrays — no transaction data is copied), and answers every
counting primitive by running the ordinary kernels per shard in a
worker pool and merging:

* item-support vectors and bin histograms add elementwise (the bins of
  a basis partition each shard exactly as they partition ``D``);
* pairwise/conjunction supports add as scalars per key.

Counts are additive over any partition of the transactions, so the
merged answers equal the single-scan answers exactly — the
equivalence test-suite pins this against both
:class:`~repro.engine.bitmap.BitmapBackend` and the naive oracle.

Two execution modes share those merge rules and, deliberately, the
same per-shard kernels (:mod:`repro.engine.parallel`):

* ``mode="threads"`` — a thread pool.  The numpy kernels release the
  GIL in their hot loops and shard databases live in process memory,
  so dispatch is free; but the Python-level per-shard work (bitmap
  row packing, dict merges) serializes on the GIL, which caps the
  speedup well below the core count.
* ``mode="processes"`` — a persistent spawn-safe worker pool over
  **shared-memory shard segments** (:mod:`repro.engine.shm`).  Each
  shard's CSR arrays (rows and tid-list index) are published once into a
  ``multiprocessing.shared_memory`` block; workers attach zero-copy
  and queries ship as small descriptors (item ids, a basis, a batch of
  itemsets) — never pickled databases.  Every core runs a full
  interpreter, so the GIL ceiling is gone.  ``extend(delta)``
  republishes only the tail shard segment; full shards (and their
  segments) are never touched.  When shared memory is unavailable the
  backend falls back to thread mode instead of failing
  (:attr:`ShardedBackend.effective_mode` tells which one ran).

Per-query working memory is one shard's scratch per worker instead of
one full-database scratch, in both modes, which is what makes long
bases feasible on large ``N``.

**Out-of-core (mmap) plane.**  Instead of an in-memory database, the
backend can be built over a :class:`~repro.engine.mmap.MmapShardStore`
(``ShardedBackend.from_store`` or the ``store=`` kwarg): shards then
live in memory-mapped segment files under the state dir, fetched
through the store's budget-bounded LRU cache in thread mode, or
attached by path in worker processes — which needs no ``/dev/shm`` at
all.  Counts are bit-identical to the in-memory plane (same kernels,
same additive merges, exact integers); only residency changes.  The
full :attr:`database` is copied into RAM only if something asks for
it.
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
from repro.engine import parallel, shm
from repro.engine.backend import CountingBackend
from repro.errors import ValidationError, WorkerPoolError

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.engine.mmap import MmapShardStore

__all__ = ["ShardedBackend", "DEFAULT_SHARD_SIZE", "EXECUTION_MODES"]

#: Default transactions per shard — large enough that the per-shard
#: numpy kernels amortize Python dispatch, small enough that a worker's
#: scratch stays in cache-friendly territory.
DEFAULT_SHARD_SIZE = 65_536

#: Execution modes of :class:`ShardedBackend`.
EXECUTION_MODES = ("threads", "processes")

_T = TypeVar("_T")


class _FileSegment:
    """Process-plane handle for one on-disk segment (mmap plane).

    Mirrors the tiny :class:`~repro.engine.shm.ShardSegment` surface
    (``.spec`` / ``.unlink()``) so dispatch and close stay
    mode-agnostic.  ``unlink`` is a no-op: segment files are durable
    store state, owned by the :class:`~repro.engine.mmap
    .MmapShardStore`, not per-backend OS resources.
    """

    def __init__(self, spec) -> None:
        self.spec = spec

    def unlink(self) -> None:
        return None


class ShardedBackend(CountingBackend):
    """Partitioned parallel counting over fixed-size transaction shards.

    Parameters
    ----------
    database:
        The transactions to count over.
    shard_size:
        Transactions per shard (the last shard may be smaller).
    max_workers:
        Pool width; defaults to ``min(num_shards, cpu_count)``.
        ``1`` degenerates to a sequential scan (useful for debugging).
    mode:
        ``"threads"`` (default) or ``"processes"`` — see the module
        docstring.  Process mode silently falls back to threads when
        shared memory is unavailable on the platform.
    start_method:
        Process-mode start method; default ``"spawn"`` (safe under a
        threaded service).  ``"fork"``/``"forkserver"`` are accepted
        where the OS provides them and start workers faster.

    Process mode owns OS resources (worker processes, shared-memory
    blocks): call :meth:`close` — or use the backend as a context
    manager — when done.  A worker crash raises a clean
    :class:`~repro.errors.WorkerPoolError` for that query and discards
    the pool; the next query builds a fresh one.
    """

    def __init__(
        self,
        database: Optional[TransactionDatabase] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_workers: Optional[int] = None,
        mode: str = "threads",
        start_method: Optional[str] = None,
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
        if mode not in EXECUTION_MODES:
            raise ValidationError(
                f"mode must be one of {EXECUTION_MODES}, got {mode!r}"
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
        self._mode = mode
        self._start_method = start_method
        self._shards: Optional[List[TransactionDatabase]] = None
        self._item_supports: Optional[np.ndarray] = None
        # Process-plane state (None until first process-mode query).
        self._segments: Optional[List] = None
        self._pool: Optional[parallel.WorkerPool] = None
        self._shm_unavailable = False
        self._closed = False

    @classmethod
    def from_store(
        cls,
        store: "MmapShardStore",
        max_workers: Optional[int] = None,
        mode: str = "threads",
        start_method: Optional[str] = None,
    ) -> "ShardedBackend":
        """A backend over a spilled shard store (the mmap data plane).

        The store's segments *are* the shards; queries open them
        through its budget-bounded cache (threads) or by path in
        worker processes.  ``close()`` closes the store too — mapped
        segments are this backend's OS resources.
        """
        return cls(
            max_workers=max_workers,
            mode=mode,
            start_method=start_method,
            store=store,
        )

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
        """Residency telemetry for ``/healthz`` (mode + store stats)."""
        stats: Dict[str, object] = {
            "plane": self.data_plane,
            "mode": self.effective_mode,
            "shards": self.num_shards,
        }
        if self._store is not None:
            stats.update(self._store.stats())
        return stats

    @property
    def mode(self) -> str:
        """The requested execution mode."""
        return self._mode

    @property
    def effective_mode(self) -> str:
        """The mode queries actually run in (fallback-aware)."""
        if self._mode == "processes" and not self._shm_unavailable:
            return "processes"
        return "threads"

    # -- streaming ingestion --------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` by growing the tail shard, not resharding.

        Existing full shards are untouched (their warm per-shard
        indexes — and, in process mode, their published shared-memory
        segments — stay valid); the last, partially filled shard is
        extended with the new rows (≤ one shard's worth of work, its
        tid-list index merged rather than rebuilt), and any remaining
        delta rows form new tail shards.  Every shard then views the
        extended database's arrays, so the rows are held once.  In
        process mode only the rebuilt tail's segment is republished
        and only the new tails are published; the cached item-support
        vector is advanced by adding ``delta``'s supports.
        """
        self._validate_delta(delta)
        if self._store is not None:
            self._extend_store(delta)
            return
        extended = self._database.extended(delta)
        if self._shards is not None and delta.num_transactions:
            first_changed = len(self._shards)
            count = delta.num_transactions
            start = 0
            last = self._shards[-1]
            if last.num_transactions < self._shard_size:
                first_changed -= 1
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
            if self._segments is not None:
                # Republish only the changed tail: unlink the rebuilt
                # shard's old segment, publish it and the new shards
                # under fresh names (workers attach lazily by name, so
                # nothing needs to be told about the swap).
                shm.unlink_all(self._segments[first_changed:])
                self._segments[first_changed:] = shm.publish_all(
                    self._shards[first_changed:]
                )
        if self._item_supports is not None:
            self._item_supports = (
                self._item_supports + delta.item_supports()
            )
        self._database = extended

    def _extend_store(self, delta: TransactionDatabase) -> None:
        """Mmap-plane extend: append to the spilled segments.

        The store rewrites only its partial tail segment (atomically,
        under a bumped generation) and adds new segments for the rest;
        here we refresh the process plane's segment list from that
        first changed index on — workers cache attachments by file
        name, and the new generation's names are fresh, so stale
        mappings can never answer.
        """
        if not delta.num_transactions:
            return
        first_changed = self._store.extend(delta)
        if self._segments is not None:
            self._segments[first_changed:] = [
                _FileSegment(spec)
                for spec in self._store.segment_specs[first_changed:]
            ]
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
        """Thread-mode fan-out: ``task`` on every shard, merged later.

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

    # -- the process plane ----------------------------------------------
    def _ensure_process_plane(self) -> bool:
        """Publish segments + start the pool; False → use threads.

        On the mmap plane the "segments" are the store's files — no
        shared-memory probe, no publication copy: workers attach by
        path.  An empty store has nothing to fan out, so it answers in
        thread mode (one empty shard).
        """
        if (
            self._mode != "processes"
            or self._shm_unavailable
            or self._closed
        ):
            return False
        if self._store is not None:
            if self._store.num_segments == 0:
                return False
            if self._segments is None:
                self._segments = [
                    _FileSegment(spec)
                    for spec in self._store.segment_specs
                ]
        elif self._segments is None:
            if not shm.shared_memory_available():
                self._shm_unavailable = True
                return False
            self._segments = shm.publish_all(self._ensure_shards())
        if self._pool is None or self._pool.broken:
            self._pool = parallel.WorkerPool(
                self._workers_for(len(self._segments)),
                start_method=self._start_method,
            )
        return True

    def _dispatch(self, kind: str, payload: Tuple) -> List:
        """Ship ``(kind, payload)`` to every shard's worker and collect.

        One descriptor per shard; the worker attaches the shard's
        shared segment (cached across queries) and runs the *same*
        kernel thread mode would.  On a worker crash the broken pool
        is discarded so the next query starts fresh, and the clean
        :class:`WorkerPoolError` propagates to the caller.
        """
        tasks = [
            (kind, segment.spec, payload) for segment in self._segments
        ]
        try:
            return self._pool.map_tasks(tasks)
        except WorkerPoolError:
            self._pool = None
            raise

    def _map_kernel(self, kind: str, payload: Tuple) -> List:
        """Run a named shard kernel in the effective mode."""
        if self._ensure_process_plane():
            return self._dispatch(kind, payload)
        kernel = parallel.KERNELS[kind]
        return self._map_shards(lambda shard: kernel(shard, *payload))

    # -- the four primitives --------------------------------------------
    def item_supports(self) -> np.ndarray:
        if self._item_supports is None:
            parts = self._map_kernel("item_supports", ())
            self._item_supports = np.sum(parts, axis=0, dtype=np.int64)
        return self._item_supports.copy()

    def pairwise_supports(
        self, items: Sequence[int]
    ) -> Dict[Tuple[int, int], int]:
        pool = canonical_itemset(items)
        parts = self._map_kernel("pairwise_supports", (pool,))
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
        """One fan-out for the whole batch: each worker answers every
        itemset over its shard, the parent sums per itemset."""
        canonical = [canonical_itemset(itemset) for itemset in itemsets]
        if not canonical:
            return []
        parts = self._map_kernel("conjunction_batch", (canonical,))
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
        parts = self._map_kernel("bin_counts_batch", (bases,))
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
            "extension_supports",
            (tuple(int(item) for item in base), tuple(candidates)),
        )
        return np.sum(parts, axis=0, dtype=np.int64)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop the worker pool and release every segment.

        Idempotent.  Shared-memory segments are unlinked; on the mmap
        plane the store's cached mappings are dropped and the store is
        closed (its files stay on disk — reopen with
        ``MmapShardStore.open``).  After close, only the in-memory
        thread plane stays queryable — the process plane will not be
        rebuilt.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._segments is not None:
            shm.unlink_all(self._segments)
            self._segments = None
        if self._store is not None:
            self._store.close()

    def __del__(self) -> None:  # pragma: no cover - best-effort
        try:
            if self._pool is not None or self._segments is not None:
                self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        mode = (
            f", mode={self._mode!r}" if self._mode != "threads" else ""
        )
        source = (
            repr(self._store)
            if self._store is not None
            else repr(self._database)
        )
        return (
            f"ShardedBackend({source}, "
            f"shard_size={self._shard_size}, "
            f"max_workers={self._max_workers}{mode})"
        )
