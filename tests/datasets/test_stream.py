"""TransactionLog versioning, snapshot immutability, and COW reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.stream import LogSnapshot, TransactionLog
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError


def random_rows(seed: int, count: int, num_items: int = 12):
    rng = np.random.default_rng(seed)
    member = rng.random((count, num_items)) < 0.35
    return [np.flatnonzero(row).tolist() for row in member]


class TestVersioning:
    def test_initial_contents_are_version_zero(self):
        log = TransactionLog(12, random_rows(0, 9))
        assert log.version == 0
        assert log.num_transactions == 9
        assert log.num_transactions_at(0) == 9

    def test_each_append_advances_the_version(self):
        log = TransactionLog(12, random_rows(0, 5))
        assert log.append(random_rows(1, 3)) == 1
        assert log.append(random_rows(2, 4)) == 2
        assert log.version == 2
        assert len(log) == 12
        assert [log.num_transactions_at(v) for v in (0, 1, 2)] == [
            5, 8, 12,
        ]

    def test_versions_are_strict_prefixes(self):
        rows = random_rows(3, 6)
        log = TransactionLog(12, rows[:2])
        log.append(rows[2:4])
        log.append(rows[4:])
        for version, count in ((0, 2), (1, 4), (2, 6)):
            snapshot = log.snapshot(version)
            assert isinstance(snapshot, LogSnapshot)
            assert snapshot.version == version
            assert list(snapshot.database) == [
                tuple(sorted(set(row))) for row in rows[:count]
            ]

    def test_append_accepts_a_ready_database(self):
        log = TransactionLog(12, random_rows(4, 3))
        delta = TransactionDatabase(random_rows(5, 2), num_items=12)
        assert log.append(delta) == 1
        assert len(log) == 5

    def test_from_database_shares_the_seed_snapshot(self):
        database = TransactionDatabase(random_rows(6, 7), num_items=12)
        log = TransactionLog.from_database(database)
        assert log.snapshot(0).database is database
        assert log.num_items == 12


class TestSnapshotSemantics:
    def test_old_snapshots_survive_later_appends(self):
        log = TransactionLog(12, random_rows(7, 8))
        before = log.snapshot()
        supports_before = before.database.item_supports()
        log.append(random_rows(8, 5))
        # The pinned snapshot is bit-identical after the append.
        np.testing.assert_array_equal(
            before.database.item_supports(), supports_before
        )
        assert before.num_transactions == 8
        assert log.snapshot().num_transactions == 13

    def test_latest_snapshot_reuses_warm_state_and_matches_cold(self):
        rows = random_rows(9, 30)
        log = TransactionLog(12, rows[:20])
        warm_before = log.snapshot().database
        warm_before.item_supports()
        warm_before.tidlist(3)  # force the inverted index
        log.append(rows[20:])
        warm = log.snapshot().database
        cold = TransactionDatabase(rows, num_items=12)
        np.testing.assert_array_equal(
            warm.item_supports(), cold.item_supports()
        )
        for item in range(12):
            np.testing.assert_array_equal(
                warm.tidlist(item), cold.tidlist(item)
            )
        assert warm.support([0, 3]) == cold.support([0, 3])

    def test_historical_snapshots_are_views_of_the_head(self):
        rows = random_rows(10, 3)
        log = TransactionLog(12, rows)
        for seed in range(20):
            log.append(random_rows(100 + seed, 2))
        old = log.snapshot(0).database
        assert list(old) == [tuple(row) for row in rows]
        # One copy of the rows, however many versions are read.
        head = log.snapshot().database
        for version in range(log.version):
            assert np.shares_memory(
                log.snapshot(version).database.items, head.items
            )

    def test_delta_returns_exactly_the_appended_window(self):
        log = TransactionLog(12, random_rows(11, 4))
        first = random_rows(12, 3)
        second = random_rows(13, 2)
        log.append(first)
        log.append(second)
        window = log.delta(0, 1)
        assert list(window) == [
            tuple(sorted(set(row))) for row in first
        ]
        assert log.delta(0).num_transactions == 5
        assert log.delta(2).num_transactions == 0


class TestValidation:
    def test_empty_append_is_rejected(self):
        log = TransactionLog(12, random_rows(14, 2))
        with pytest.raises(ValidationError):
            log.append([])
        assert log.version == 0

    def test_out_of_vocabulary_item_is_rejected_atomically(self):
        log = TransactionLog(6, [[0, 1], [2]])
        with pytest.raises(ValidationError):
            log.append([[3], [99]])
        # Nothing was half-appended.
        assert log.version == 0
        assert len(log) == 2

    def test_mismatched_delta_database_is_rejected(self):
        log = TransactionLog(6, [[0, 1]])
        delta = TransactionDatabase([[0]], num_items=9)
        with pytest.raises(ValidationError):
            log.append(delta)

    def test_bad_versions_are_rejected(self):
        log = TransactionLog(6, [[0]])
        with pytest.raises(ValidationError):
            log.snapshot(1)
        with pytest.raises(ValidationError):
            log.delta(-1)
        log.append([[1]])
        with pytest.raises(ValidationError):
            log.delta(1, 0)

    def test_negative_num_items_is_rejected(self):
        with pytest.raises(ValidationError):
            TransactionLog(-1)


class TestExtendedDatabase:
    def test_extended_preserves_labels_and_rejects_mismatch(self):
        labels = [f"item{i}" for i in range(5)]
        base = TransactionDatabase(
            [[0, 1], [2]], num_items=5, item_labels=labels
        )
        grown = base.extended(
            TransactionDatabase([[3, 4]], num_items=5)
        )
        assert grown.item_labels == tuple(labels)
        assert grown.num_transactions == 3
        with pytest.raises(ValidationError):
            base.extended(TransactionDatabase([[0]], num_items=4))

    def test_extended_with_empty_sides(self):
        base = TransactionDatabase([[0, 1]], num_items=3)
        empty = TransactionDatabase([], num_items=3)
        base.item_supports()
        base.tidlist(0)
        grown = base.extended(empty)
        assert grown.num_transactions == 1
        grown_other = empty.extended(base)
        assert grown_other.num_transactions == 1
        np.testing.assert_array_equal(
            grown_other.item_supports(), base.item_supports()
        )
