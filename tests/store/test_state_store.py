"""Unit tests for the ledger journal, dataset log store, result
store, and the :class:`StateStore` facade.

Every test that matters reopens the store from disk — durability
claims are only meaningful across a (simulated) process boundary.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    BudgetExceededError,
    StateStoreError,
    ValidationError,
)
from repro.store import (
    DatasetLogStore,
    LedgerJournal,
    ResultStore,
    StateStore,
)
from repro.store.logstore import sanitize_dataset_name


class TestLedgerJournal:
    def test_debits_survive_reopen(self, tmp_path):
        journal = LedgerJournal(tmp_path)
        journal.debit("alice", 0.5, "release k=5")
        journal.debit("alice", 0.25, "release k=9")
        journal.debit("bob", 1.0, "batch[0] k=3")
        journal.sync()
        journal.close()

        recovered = LedgerJournal(tmp_path)
        assert recovered.spent("alice") == pytest.approx(0.75)
        assert recovered.spent("bob") == pytest.approx(1.0)
        assert recovered.spent("mallory") == 0.0
        assert recovered.entries("alice") == [
            ("release k=5", 0.5),
            ("release k=9", 0.25),
        ]

    def test_compaction_preserves_every_value(self, tmp_path):
        journal = LedgerJournal(tmp_path)
        for index in range(10):
            journal.debit("alice", 0.1, f"r{index}")
        summary = journal.compact()
        assert summary["wal_bytes_after"] == 0

        # More debits after compaction land in the fresh WAL.
        journal.debit("alice", 0.1, "post-compact")
        journal.sync()
        journal.close()

        recovered = LedgerJournal(tmp_path)
        assert recovered.spent("alice") == pytest.approx(1.1)
        assert len(recovered.entries("alice")) == 11

    def test_invalid_debits_are_rejected(self, tmp_path):
        journal = LedgerJournal(tmp_path)
        with pytest.raises(ValidationError):
            journal.debit("", 0.5)
        with pytest.raises(ValidationError):
            journal.debit("alice", 0.0)
        with pytest.raises(ValidationError):
            journal.debit("alice", float("inf"))

    def test_unreadable_snapshot_is_a_store_error(self, tmp_path):
        (tmp_path / "ledger.snapshot.json").write_text("{not json")
        with pytest.raises(StateStoreError, match="unreadable"):
            LedgerJournal(tmp_path)


class TestLedgerAdmission:
    """The journal is every tenant's ledger: ``affords`` and
    ``debit_within_limit`` admit the same spends, in memory and on
    disk, and a refused or failed debit records nothing."""

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_affords_admits_what_debit_within_limit_admits(
        self, tmp_path, durable
    ):
        journal = LedgerJournal(tmp_path if durable else None)
        journal.debit_within_limit("alice", 0.1, 0.3, "r1")
        # 0.3 - 0.1 leaves 0.19999999999999998: 0.2 fits within the
        # relative tolerance, anything visibly larger does not.
        assert journal.remaining("alice", 0.3) == pytest.approx(0.2)
        assert journal.affords("alice", 0.2, 0.3)
        assert not journal.affords("alice", 0.2 + 1e-6, 0.3)
        with pytest.raises(BudgetExceededError):
            journal.debit_within_limit("alice", 0.2 + 1e-6, 0.3)
        journal.debit_within_limit("alice", 0.2, 0.3, "r2")
        assert journal.remaining("alice", 0.3) == 0.0
        assert not journal.affords("alice", 1e-6, 0.3)
        assert journal.entries("alice") == [("r1", 0.1), ("r2", 0.2)]

    def test_refused_debit_leaves_the_wal_untouched(self, tmp_path):
        journal = LedgerJournal(tmp_path)
        journal.debit_within_limit("alice", 0.8, 1.0, "r1")
        with pytest.raises(BudgetExceededError) as info:
            journal.debit_within_limit("alice", 0.8, 1.0, "r2")
        assert info.value.requested == pytest.approx(0.8)
        assert info.value.remaining == pytest.approx(0.2)
        journal.close()
        assert LedgerJournal(tmp_path).entries("alice") == [("r1", 0.8)]

    def test_failed_wal_append_records_nothing(self, tmp_path, monkeypatch):
        journal = LedgerJournal(tmp_path)

        def disk_full(payload):
            raise OSError("disk full")

        monkeypatch.setattr(journal._wal, "append", disk_full)
        with pytest.raises(OSError):
            journal.debit_within_limit("alice", 0.5, 1.0, "r1")
        # The in-memory totals never get ahead of the WAL.
        assert journal.spent("alice") == 0.0
        assert journal.entries("alice") == []

    def test_remaining_clamps_a_recovered_over_count(self, tmp_path):
        journal = LedgerJournal(tmp_path)
        journal.debit("alice", 1.5, "before the limit was lowered")
        assert journal.remaining("alice", 1.0) == 0.0
        assert not journal.affords("alice", 0.1, 1.0)
        assert journal.remaining("mallory", 1.0) == 1.0

    @pytest.mark.parametrize(
        "tenant, epsilon",
        [("", 0.5), ("alice", 0.0), ("alice", -0.5), ("alice", float("nan"))],
    )
    def test_invalid_debit_is_refused_before_the_limit_check(
        self, tenant, epsilon
    ):
        journal = LedgerJournal(None)
        with pytest.raises(ValidationError):
            journal.debit_within_limit(tenant, epsilon, 1.0)
        assert journal.tenant_ids() == []


class TestDatasetLogStore:
    def test_appends_replay_flattened_at_the_right_version(
        self, tmp_path
    ):
        store = DatasetLogStore(tmp_path, "mushroom")
        store.record_append([[1, 2], [3]])
        store.record_append([[4]])
        store.sync()
        store.close()

        recovered = DatasetLogStore(tmp_path, "mushroom")
        version, rows = recovered.replay()
        assert version == 2
        assert rows == [[1, 2], [3], [4]]

    def test_record_append_numbers_the_versions(self, tmp_path):
        # The log is the one owner of the numbering: each batch gets
        # the watermark + 1, and a reopened log counts on from disk.
        store = DatasetLogStore(tmp_path, "mushroom")
        assert store.record_append([[1]]) == 1
        assert store.record_append([[2]]) == 2
        store.close()
        reopened = DatasetLogStore(tmp_path, "mushroom")
        assert reopened.version == 2
        assert reopened.record_append([[3]]) == 3

    def test_empty_appends_are_rejected(self, tmp_path):
        store = DatasetLogStore(tmp_path, "mushroom")
        with pytest.raises(ValidationError, match="empty"):
            store.record_append([])

    def test_checkpoint_interval_folds_the_wal(self, tmp_path):
        store = DatasetLogStore(
            tmp_path, "mushroom", checkpoint_interval=3
        )
        for version in range(1, 5):
            store.record_append([[version]])
        store.close()

        recovered = DatasetLogStore(tmp_path, "mushroom")
        version, rows = recovered.replay()
        assert version == 4
        assert rows == [[1], [2], [3], [4]]

    def test_compact_crash_window_skips_folded_records(self, tmp_path):
        # Compaction writes the checkpoint, then truncates the WAL.  A
        # crash between the two leaves WAL records the checkpoint
        # already covers; replay must not double-append them.
        store = DatasetLogStore(tmp_path, "mushroom")
        store.record_append([[1]])
        store.record_append([[2]])
        wal_bytes = (
            tmp_path / "logs" / "mushroom.wal"
        ).read_bytes()
        store.compact()
        # Simulate the crash: the pre-compaction WAL reappears.
        (tmp_path / "logs" / "mushroom.wal").write_bytes(wal_bytes)
        store.close()

        recovered = DatasetLogStore(tmp_path, "mushroom")
        version, rows = recovered.replay()
        assert version == 2
        assert rows == [[1], [2]]

    def test_checkpoint_interval_none_disables_auto_checkpoint(
        self, tmp_path
    ):
        store = DatasetLogStore(
            tmp_path, "mushroom", checkpoint_interval=None
        )
        for version in range(1, 200):
            store.record_append([[version % 5]])
        store.close()
        assert not (
            tmp_path / "logs" / "mushroom.checkpoint.json"
        ).exists()
        # ... and the same through the facade.
        with StateStore(
            tmp_path / "facade", checkpoint_interval=None
        ) as facade:
            log = facade.dataset_log("d")
            for version in range(1, 100):
                log.record_append([[1]])
        assert not (
            tmp_path / "facade" / "logs" / "d.checkpoint.json"
        ).exists()

    def test_hostile_dataset_names_cannot_escape_the_directory(
        self, tmp_path
    ):
        assert "/" not in sanitize_dataset_name("../../etc/passwd")
        store = DatasetLogStore(tmp_path, "../evil")
        store.record_append([[1]])
        store.close()
        inside = list((tmp_path / "logs").iterdir())
        assert inside  # files landed inside logs/, nowhere else
        assert not (tmp_path.parent / "evil.wal").exists()
        with pytest.raises(ValidationError):
            sanitize_dataset_name("")


class TestResultStore:
    def test_round_trip_and_ordering(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record("alice", "mushroom", 0, {"k": 5, "epsilon": 0.5})
        store.record("bob", "retail", 0, {"k": 9, "epsilon": 1.0})
        store.record("alice", "mushroom", 1, {"k": 7, "epsilon": 0.25})
        store.sync()
        store.close()

        recovered = ResultStore(tmp_path)
        assert len(recovered) == 3
        history = recovered.results_for("alice")
        assert [entry["snapshot_version"] for entry in history] == [0, 1]
        assert recovered.get("alice", "mushroom", 1) == [
            {"k": 7, "epsilon": 0.25}
        ]
        assert recovered.get("alice", "mushroom", 9) == []
        assert recovered.release_counts() == {"mushroom": 2, "retail": 1}
        assert recovered.epsilon_by_dataset() == {
            "mushroom": pytest.approx(0.75),
            "retail": pytest.approx(1.0),
        }

    def test_none_snapshot_version_stores_as_zero(self, tmp_path):
        store = ResultStore(tmp_path)
        store.record("alice", "static", None, {"epsilon": 0.1})
        assert store.get("alice", "static", 0) == [{"epsilon": 0.1}]

    def test_compact_preserves_contents(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(5):
            store.record("alice", "d", index, {"epsilon": 0.1})
        store.compact()
        store.close()
        recovered = ResultStore(tmp_path)
        assert len(recovered) == 5

    def test_retention_bounds_the_window_not_the_aggregates(
        self, tmp_path
    ):
        store = ResultStore(tmp_path, retention=3)
        for index in range(10):
            store.record("alice", "d", index, {"epsilon": 0.1})
        # The serving window holds only the newest 3...
        history = store.results_for("alice")
        assert [e["snapshot_version"] for e in history] == [7, 8, 9]
        assert [e["snapshot_version"] for e in store.results_for(
            "alice", limit=2
        )] == [8, 9]
        # ...while counts, ε sums, and the WAL stay exact and full.
        assert len(store) == 10
        assert store.release_counts() == {"d": 10}
        assert store.epsilon_by_dataset()["d"] == pytest.approx(1.0)
        store.close()
        assert len(ResultStore(tmp_path, retention=3)) == 10


class TestStateStoreFacade:
    def test_recovery_report_aggregates_all_stores(self, tmp_path):
        with StateStore(tmp_path) as store:
            store.ledger.debit("alice", 0.5, "r")
            store.results.record("alice", "d", 0, {"epsilon": 0.5})
            store.dataset_log("d").record_append([[1]])
            store.barrier()

        with StateStore(tmp_path) as recovered:
            report = recovered.recovery
            assert report.tenants == {"alice": pytest.approx(0.5)}
            assert report.results == 1
            assert report.torn_records == 0
            version, rows = recovered.dataset_log("d").replay()
            recovered.recovery.note_dataset("d", version)
            assert report.to_wire()["datasets"] == {"d": 1}

    def test_compact_covers_untouched_dataset_logs_on_disk(
        self, tmp_path
    ):
        with StateStore(tmp_path) as store:
            store.dataset_log("kosarak").record_append([[5]])
            store.barrier()

        # A fresh facade that never touched the dataset still compacts
        # and inspects it (offline maintenance over a copied dir).
        with StateStore(tmp_path) as fresh:
            summary = fresh.compact()
            assert [d["dataset"] for d in summary["datasets"]] == [
                "kosarak"
            ]
            view = fresh.inspect()
            assert view["datasets"]["kosarak"]["version"] == 1

    def test_colliding_dataset_stems_are_refused(self, tmp_path):
        # sanitize_dataset_name is not injective; sharing one WAL
        # between two datasets would interleave their versions and
        # serve one dataset's rows as the other's after a restart.
        with StateStore(tmp_path) as store:
            store.dataset_log("retail/a")
            with pytest.raises(StateStoreError, match="retail_a"):
                store.dataset_log("retail_a")
            # The same name again is fine (cached, not a collision).
            store.dataset_log("retail/a")

    def test_refuses_a_file_as_state_dir(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("I am a file")
        with pytest.raises(StateStoreError):
            StateStore(target)


class TestInMemoryStateStore:
    """``StateStore(None)``: the service's store without a state dir."""

    def test_is_not_durable(self):
        store = StateStore(None)
        assert store.durable is False
        assert store.root is None

    def test_creates_no_file(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        with StateStore(None) as store:
            store.ledger.debit("alice", 0.5, "r")
            store.results.record("alice", "d", 0, {"epsilon": 0.5})
            store.dataset_log("d").record_append([[1]])
            store.barrier()
        assert list(tmp_path.iterdir()) == []

    def test_dataset_log_numbers_versions_and_holds_no_rows(self):
        log = StateStore(None).dataset_log("d")
        # Past the default checkpoint interval: nothing to fold.
        for version in range(1, 71):
            assert log.record_append([[1, 2], [3]]) == version
        assert log.version == 70
        assert log.replay() == (0, [])

    def test_results_keep_window_aggregates_and_reuse(self):
        results = StateStore(None).results
        payload = {"k": 2, "epsilon": 1.0, "itemsets": [[[1], 5.0]]}
        results.record("alice", "d", 0, payload)
        assert [e["payload"] for e in results.results_for("alice")] == [
            payload
        ]
        assert results.release_counts() == {"d": 1}
        assert results.epsilon_by_dataset() == {"d": 1.0}
        assert results.reuse_stats()["entries"] == 1

    def test_compact_is_refused(self):
        with pytest.raises(StateStoreError):
            StateStore(None).compact()

    def test_barrier_is_a_no_op(self, monkeypatch):
        import os

        def no_fsync(_fd):
            raise AssertionError("an in-memory barrier must not fsync")

        monkeypatch.setattr(os, "fsync", no_fsync)
        store = StateStore(None)
        store.results.record("alice", "d", 0, {"epsilon": 0.5})
        store.dataset_log("d").record_append([[1]])
        store.barrier()
        store.dataset_log("d").sync()
        assert store.ledger.stats()["fsyncs"] == 0

    def test_watermark_outlives_close(self):
        # What a restarted service relies on: rows an in-memory store
        # never held replay as (0, []), yet the next batch still gets
        # a version no earlier data state used.
        store = StateStore(None)
        store.dataset_log("d").record_append([[1]])
        store.close()
        assert store.dataset_log("d").replay() == (0, [])
        assert store.dataset_log("d").record_append([[2]]) == 2

    def test_colliding_dataset_stems_are_allowed(self):
        store = StateStore(None)
        store.dataset_log("retail/a").record_append([[1]])
        assert store.dataset_log("retail_a").version == 0
