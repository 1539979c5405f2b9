"""Sharded backend over spilled stores: pool widths, dispatch, errors,
lifecycle.

Covers what the backend-equivalence suite cannot: that every pool
width answers bit-identically, also while a tiny budget keeps
evicting shards, that shards run on pool threads (and on the caller's
thread when the pool is one wide), that a failing kernel surfaces its
own exception and leaves the backend usable, that concurrent queries
on one backend agree, the empty-store path, and that the removed
knobs and the in-memory source are gone rather than silently ignored.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import BitmapBackend, NaiveBackend, ShardedBackend
from repro.engine import sharded
from repro.engine import mmap
from repro.engine.mmap import MmapShardStore
from repro.errors import StateStoreError, ValidationError
from tests.engine.spill import spilled

NUM_ITEMS = 16


def random_database(
    seed: int, num_transactions: int = 60, num_items: int = NUM_ITEMS
) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    member = rng.random((num_transactions, num_items)) < 0.3
    return TransactionDatabase(
        [np.flatnonzero(row) for row in member], num_items=num_items
    )


def assert_matches(candidate, reference) -> None:
    """Every counting primitive, bit for bit."""
    pool = [0, 3, 5, 8, 11, 14]
    bases = [[1, 4, 9], [0, 2, 5, 7], [6], []]
    np.testing.assert_array_equal(
        candidate.item_supports(), reference.item_supports()
    )
    assert np.array_equal(
        candidate.pairwise_supports(pool), reference.pairwise_supports(pool)
    )
    for got, want in zip(
        candidate.bin_counts_batch(bases),
        reference.bin_counts_batch(bases),
    ):
        np.testing.assert_array_equal(got, want)


class RecordingExecutor(ThreadPoolExecutor):
    """A ``ThreadPoolExecutor`` that records every width it is given."""

    widths: list = []

    def __init__(self, max_workers=None, *args, **kwargs):
        RecordingExecutor.widths.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


@pytest.fixture
def recorded_widths(monkeypatch):
    RecordingExecutor.widths = []
    monkeypatch.setattr(sharded, "ThreadPoolExecutor", RecordingExecutor)
    return RecordingExecutor.widths


# ----------------------------------------------------------------------
# Pool widths
# ----------------------------------------------------------------------
class TestPoolWidths:
    @pytest.mark.parametrize("max_workers", [1, 2, 3, None])
    def test_every_pool_width_is_bit_identical(self, max_workers):
        database = random_database(3)
        with spilled(
            database, rows_per_segment=9, max_workers=max_workers
        ) as backend:
            assert backend.num_shards == 7
            assert_matches(backend, NaiveBackend(database))

    @pytest.mark.parametrize("max_workers", [1, 3, None])
    def test_spilled_store_every_pool_width(self, max_workers):
        """A 1-byte budget keeps evicting while the pool threads
        fetch shards through the store's cache concurrently."""
        database = random_database(4)
        with spilled(
            database, memory_budget_bytes=1,
            max_workers=max_workers,
        ) as backend:
            assert backend.num_shards == 6
            assert_matches(backend, BitmapBackend(database))
            assert backend.store.stats()["cached_shards"] == 1

    def test_default_width_is_min_of_shards_and_cores(
        self, monkeypatch, recorded_widths
    ):
        monkeypatch.setattr(sharded.os, "cpu_count", lambda: 8)
        spilled(
            random_database(5, num_transactions=30), rows_per_segment=10
        ).bin_counts([1, 2])
        monkeypatch.setattr(sharded.os, "cpu_count", lambda: 2)
        spilled(
            random_database(5, num_transactions=30), rows_per_segment=10
        ).bin_counts([1, 2])
        assert recorded_widths == [3, 2]

    def test_one_shard_or_one_core_starts_no_pool(
        self, monkeypatch, recorded_widths
    ):
        database = random_database(6)
        spilled(database, rows_per_segment=1000).item_supports()
        monkeypatch.setattr(sharded.os, "cpu_count", lambda: None)
        spilled(database, rows_per_segment=7).item_supports()
        spilled(
            database, rows_per_segment=7, max_workers=1
        ).item_supports()
        assert recorded_widths == []


# ----------------------------------------------------------------------
# Dispatch and errors
# ----------------------------------------------------------------------
def _record_threads(monkeypatch):
    threads = []
    kernel = sharded.shard_item_supports

    def recording(shard):
        threads.append(threading.get_ident())
        return kernel(shard)

    monkeypatch.setattr(sharded, "shard_item_supports", recording)
    return threads


class TestDispatch:
    def test_shards_run_on_pool_threads(self, monkeypatch):
        database = random_database(7)
        threads = _record_threads(monkeypatch)
        backend = spilled(database, rows_per_segment=9, max_workers=3)
        np.testing.assert_array_equal(
            backend.item_supports(), database.item_supports()
        )
        assert len(threads) == 7
        assert threading.get_ident() not in threads
        assert 1 <= len(set(threads)) <= 3

    def test_width_one_runs_on_the_calling_thread(self, monkeypatch):
        database = random_database(8)
        threads = _record_threads(monkeypatch)
        backend = spilled(database, rows_per_segment=9, max_workers=1)
        np.testing.assert_array_equal(
            backend.item_supports(), database.item_supports()
        )
        assert threads == [threading.get_ident()] * 7

    def test_kernel_error_reaches_the_caller(self, monkeypatch):
        """A kernel that raises on one shard surfaces its own
        exception, and the backend answers correctly afterwards."""
        database = random_database(9)
        backend = spilled(database, rows_per_segment=11, max_workers=3)
        reference = BitmapBackend(database)
        kernel = sharded.shard_bin_counts_batch

        def failing(shard, bases):
            if shard.num_transactions < 11:  # only the short tail
                raise RuntimeError("kernel failed on the tail shard")
            return kernel(shard, bases)

        with backend:
            with monkeypatch.context() as patch:
                patch.setattr(sharded, "shard_bin_counts_batch", failing)
                with pytest.raises(RuntimeError, match="tail shard"):
                    backend.bin_counts([0, 2, 5])
            assert_matches(backend, reference)

    def test_concurrent_queries_agree(self):
        """Callers racing on a fresh backend (no shard cached, item
        supports not yet cached) all get the oracle's answers."""
        database = random_database(10, num_transactions=90)
        oracle = NaiveBackend(database)
        expected = (
            oracle.item_supports(),
            oracle.bin_counts([1, 3, 6, 10]),
            oracle.pairwise_supports([2, 4, 8, 12]),
        )
        backend = spilled(database, rows_per_segment=8, max_workers=2)
        barrier = threading.Barrier(4)

        def query(_):
            barrier.wait()
            return (
                backend.item_supports(),
                backend.bin_counts([1, 3, 6, 10]),
                backend.pairwise_supports([2, 4, 8, 12]),
            )

        with ThreadPoolExecutor(max_workers=4) as callers:
            answers = list(callers.map(query, range(4)))
        for supports, bins, pairs in answers:
            np.testing.assert_array_equal(supports, expected[0])
            np.testing.assert_array_equal(bins, expected[1])
            np.testing.assert_array_equal(pairs, expected[2])


# ----------------------------------------------------------------------
# Lifecycle and the empty store
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_store_backend_close_is_idempotent(self):
        backend = spilled(random_database(12))
        backend.item_supports()
        backend.close()
        backend.close()
        with pytest.raises(StateStoreError):
            backend.bin_counts([1])

    def test_empty_store_answers_like_an_empty_database(self):
        empty = TransactionDatabase([], num_items=NUM_ITEMS)
        with spilled(empty, max_workers=2) as backend:
            assert backend.store.num_segments == 0
            assert backend.num_shards == 1
            assert backend.num_transactions == 0
            assert_matches(backend, NaiveBackend(empty))

    def test_extend_from_an_empty_store(self):
        empty = TransactionDatabase([], num_items=NUM_ITEMS)
        delta = random_database(13, num_transactions=25)
        with spilled(empty, max_workers=2) as backend:
            backend.item_supports()  # cache the empty supports
            backend.extend(delta)
            assert backend.store.num_segments == 3
            assert_matches(backend, NaiveBackend(delta))


# ----------------------------------------------------------------------
# The removed knobs and the in-memory source are gone, not ignored
# ----------------------------------------------------------------------
class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "removed",
        [{"mode": "processes"}, {"start_method": "spawn"},
         {"shard_size": 7}],
    )
    def test_constructor_rejects_removed_knob(self, removed):
        with spilled(random_database(14)) as backend:
            with pytest.raises(TypeError):
                ShardedBackend(backend.store, **removed)

    def test_constructor_rejects_an_in_memory_database(self):
        database = random_database(15)
        with pytest.raises(TypeError, match="MmapShardStore"):
            ShardedBackend(database)
        with pytest.raises(TypeError):
            ShardedBackend(database=database)
        assert not hasattr(ShardedBackend, "from_store")

    def test_stats_carry_no_mode(self):
        with spilled(random_database(16)) as backend:
            stats = backend.data_plane_stats()
            assert stats["plane"] == "mmap"
            assert stats["shards"] == 6
            assert "mode" not in stats
            assert "mode=" not in repr(backend)


# ----------------------------------------------------------------------
# Store segmentation settings
# ----------------------------------------------------------------------
class TestSegmentation:
    def test_default_rows_per_segment(self, tmp_path):
        from repro import engine

        assert engine.DEFAULT_SHARD_SIZE is mmap.DEFAULT_SHARD_SIZE
        with MmapShardStore.create(tmp_path, NUM_ITEMS) as store:
            assert store.rows_per_segment == mmap.DEFAULT_SHARD_SIZE

    @pytest.mark.parametrize("rows", [0, -3])
    def test_rows_per_segment_below_one_is_rejected(self, tmp_path, rows):
        directory = tmp_path / "shards"
        with pytest.raises(ValidationError, match="rows_per_segment"):
            MmapShardStore.create(
                directory, NUM_ITEMS, rows_per_segment=rows
            )
        assert not directory.exists()
