"""Spill a database into a fresh mmap shard store behind a backend.

:class:`~repro.engine.sharded.ShardedBackend` counts only spilled
stores, so every sharded configuration the equivalence suites check
goes through :func:`spilled`.  Each call spills into its own temporary
directory, removed once the store is garbage-collected.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref

from repro.datasets.transactions import TransactionDatabase
from repro.engine.mmap import MmapShardStore
from repro.engine.sharded import ShardedBackend


def spilled(
    database: TransactionDatabase,
    *,
    rows_per_segment: int = 11,
    memory_budget_bytes=None,
    max_workers=None,
) -> ShardedBackend:
    """``database`` spilled into a fresh store, behind a backend."""
    directory = tempfile.mkdtemp(prefix="repro-test-shards-")
    try:
        store = MmapShardStore.create(
            directory,
            database.num_items,
            rows_per_segment=rows_per_segment,
            memory_budget_bytes=memory_budget_bytes,
        )
    except BaseException:
        shutil.rmtree(directory, ignore_errors=True)
        raise
    weakref.finalize(store, shutil.rmtree, directory, True)
    store.append(database)
    store.flush()
    return ShardedBackend(store, max_workers=max_workers)
