"""Streaming-append equivalence and snapshot-aware session tests.

The acceptance property for the incremental ingest path: for **every**
backend, appending transactions via ``extend`` and then querying must
yield supports identical to a cold rebuild over the concatenated
database — pinned against the :class:`NaiveBackend` oracle rebuilt
from scratch.  Appends are deliberately sized so the packed-bitmap
path crosses (and lands on) non-byte-aligned boundaries.

The session half: releases pin the snapshot version they were computed
on, are deterministic per (seed, snapshot), a session serves the
version it is handed, and the caching layer invalidates per snapshot
instead of serving stale answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    CachedBackend,
    NaiveBackend,
    PrivBasisSession,
)
from repro.errors import ValidationError
from tests.engine.spill import spilled


def random_database(
    seed: int, num_transactions: int, num_items: int = 14
) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    member = rng.random((num_transactions, num_items)) < rng.uniform(
        0.1, 0.4
    )
    return TransactionDatabase(
        [np.flatnonzero(row) for row in member], num_items=num_items
    )


#: Base size 37 and deltas 11/5 are chosen so every packed-bitmap
#: extension starts on a *non*-aligned boundary (37 % 8 = 5,
#: 48 % 8 = 0 then 53) — both branches of the byte-fusion path run.
BASE, DELTAS = 37, (11, 5)


def incremental_backends(database: TransactionDatabase):
    """Every production configuration that must track the oracle."""
    return [
        NaiveBackend(database),
        BitmapBackend(database),
        spilled(database, rows_per_segment=16, max_workers=1),
        spilled(database, rows_per_segment=7, max_workers=3),
        CachedBackend(BitmapBackend(database)),
        CachedBackend(spilled(database, rows_per_segment=16)),
    ]


def warm_up(backend) -> None:
    """Touch every primitive so extend() exercises warm structures."""
    backend.item_supports()
    backend.pairwise_supports(range(6))
    backend.bin_counts([0, 3, 7])
    if isinstance(backend, BitmapBackend):
        backend.bitmaps(range(8))


@pytest.mark.parametrize("seed", range(4))
class TestAppendEquivalence:
    def test_extend_matches_cold_rebuild_oracle(self, seed):
        base = random_database(seed, BASE)
        deltas = [
            random_database(1000 * seed + index, count)
            for index, count in enumerate(DELTAS, start=1)
        ]
        all_rows = list(base)
        for delta in deltas:
            all_rows.extend(delta)
        oracle = NaiveBackend(
            TransactionDatabase(all_rows, num_items=base.num_items)
        )
        rng = np.random.default_rng(seed + 77)
        for backend in incremental_backends(base):
            warm_up(backend)
            for delta in deltas:
                backend.extend(delta)
            assert backend.num_transactions == BASE + sum(DELTAS)
            np.testing.assert_array_equal(
                backend.item_supports(),
                oracle.item_supports(),
                err_msg=repr(backend),
            )
            pool = sorted(rng.choice(14, size=6, replace=False))
            assert backend.pairwise_supports(pool) == (
                oracle.pairwise_supports(pool)
            ), repr(backend)
            bases = [
                [int(item) for item in rng.choice(14, size=size,
                                                  replace=False)]
                for size in (1, 2, 3, 0, 5)
            ]
            for got, want in zip(
                backend.bin_counts_batch(bases),
                oracle.bin_counts_batch(bases),
            ):
                np.testing.assert_array_equal(
                    got, want, err_msg=f"{backend!r} bases={bases}"
                )

    def test_extend_from_empty_database(self, seed):
        empty = TransactionDatabase([], num_items=14)
        delta = random_database(seed + 10, 21)
        oracle = NaiveBackend(
            TransactionDatabase(list(delta), num_items=14)
        )
        for backend in incremental_backends(empty):
            warm_up(backend)
            backend.extend(delta)
            np.testing.assert_array_equal(
                backend.item_supports(),
                oracle.item_supports(),
                err_msg=repr(backend),
            )
            np.testing.assert_array_equal(
                backend.bin_counts([1, 4]),
                oracle.bin_counts([1, 4]),
                err_msg=repr(backend),
            )


def assert_all_shards_match(backend) -> None:
    """Each shard equals its window of the backend's full database."""
    database = backend.database
    store = backend.store
    start = 0
    for index in range(store.num_segments):
        shard = store.shard_database(index)
        window = database.slice(start, start + shard.num_transactions)
        np.testing.assert_array_equal(shard.offsets, window.offsets)
        np.testing.assert_array_equal(shard.items, window.items)
        for item in range(database.num_items):
            np.testing.assert_array_equal(
                shard.tidlist(item), window.tidlist(item)
            )
        start += shard.num_transactions
    assert start == database.num_transactions


class TestExtendMechanics:
    def test_sharded_tail_shard_grows_before_new_shards(self):
        base = random_database(1, 20)
        backend = spilled(base, rows_per_segment=16)
        assert backend.num_shards == 2  # 16 + 4
        backend.extend(random_database(2, 10))
        # 4-row tail absorbed 10 new rows: 16 + 14, still 2 shards.
        assert backend.num_shards == 2
        backend.extend(random_database(3, 40))
        # 14→16 fills the tail, then 38 remaining rows → 3 new shards.
        assert backend.num_shards == 5
        assert backend.num_transactions == 70
        assert_all_shards_match(backend)

    def test_bitmap_pools_are_extended_not_rebuilt(self):
        base = random_database(4, 37)
        backend = BitmapBackend(base)
        backend.bitmaps(range(8))
        built_before = backend.pools_built
        backend.extend(random_database(5, 11))
        backend.pairwise_supports(range(8))
        assert backend.pools_built == built_before

    def test_cached_backend_invalidates_per_snapshot(self):
        base = random_database(6, 30)
        backend = CachedBackend(BitmapBackend(base))
        basis = [0, 2, 5]
        stale = backend.bin_counts(basis)
        assert backend.bin_counts(basis).sum() == 30  # memo hit
        delta = random_database(7, 12)
        backend.extend(delta)
        fresh = backend.bin_counts(basis)
        # The append dropped the memo: the post-append read missed.
        assert backend.cache_info()["bin_counts"] == {
            "hits": 1, "misses": 2,
        }
        assert fresh.sum() == 42
        assert stale.sum() == 30  # the old copy was never mutated
        oracle = NaiveBackend(backend.database)
        np.testing.assert_array_equal(fresh, oracle.bin_counts(basis))

    def test_extend_rejects_mismatched_vocabulary(self):
        backend = BitmapBackend(random_database(8, 10, num_items=14))
        with pytest.raises(ValidationError):
            backend.extend(random_database(9, 5, num_items=9))
        with pytest.raises(ValidationError):
            backend.extend([[0, 1]])  # not a TransactionDatabase


class TestSnapshotAwareSession:
    def test_releases_pin_and_report_the_snapshot_version(self):
        session = PrivBasisSession(random_database(10, 60), rng=3)
        first = session.release(k=8, epsilon=1.0)
        assert first.snapshot_version == 0
        assert session.ingest(list(random_database(11, 9))) == 1
        second = session.release(k=8, epsilon=1.0)
        assert second.snapshot_version == 1
        assert session.snapshot_version == 1
        stats = session.stats()
        assert stats["snapshot_version"] == 1
        assert stats["num_transactions"] == 69

    @pytest.mark.parametrize("seed", (1, 2))
    def test_release_is_deterministic_per_seed_and_snapshot(self, seed):
        def run():
            session = PrivBasisSession(random_database(12, 50), rng=seed)
            results = [session.release(k=6, epsilon=1.0)]
            session.ingest(list(random_database(13, 8)))
            results.append(session.release(k=6, epsilon=1.0))
            return results

        first, second = run(), run()
        for a, b in zip(first, second):
            assert a.snapshot_version == b.snapshot_version
            assert a.frequencies() == b.frequencies()
        # Different snapshots of one run are genuinely different data.
        assert first[0].snapshot_version != first[1].snapshot_version

    def test_session_serves_the_version_it_is_handed(self):
        base = random_database(14, 40)
        session = PrivBasisSession(base, rng=0)
        # A restart replays a log's two batches, flattened, in one
        # call served at the log's version.
        rows = list(random_database(15, 6)) + list(random_database(16, 4))
        assert session.ingest(rows, version=2) == 2
        assert session.snapshot_version == 2
        oracle = NaiveBackend(
            TransactionDatabase(list(base) + rows, num_items=14)
        )
        np.testing.assert_array_equal(
            session.backend.item_supports(), oracle.item_supports()
        )
        # Numbers a lost data state used may be skipped; a bare ingest
        # then counts on from the version served.
        assert session.ingest([[0, 1]], version=5) == 5
        assert session.ingest([[2]]) == 6
        assert session.release(k=5, epsilon=1.0).snapshot_version == 6

    @pytest.mark.parametrize("version", (0, 1))
    def test_ingest_version_must_advance(self, version):
        session = PrivBasisSession(random_database(17, 40), rng=0)
        session.ingest([[0, 1]])
        with pytest.raises(ValidationError):
            session.ingest([[2]], version=version)
        # The refused batch touched nothing.
        assert session.snapshot_version == 1
        assert session.backend.num_transactions == 41

    def test_empty_ingest_is_rejected(self):
        session = PrivBasisSession(random_database(18, 20), rng=0)
        with pytest.raises(ValidationError):
            session.ingest([])
        assert session.snapshot_version == 0
