"""Cross-instance behavior of :class:`SharedLedgerJournal`.

Two (or more) journal *instances* on one directory model two worker
processes sharing a ``--state-dir``: the flock in front of every
public method opens a fresh file descriptor per hold, so two instances
in one test process serialize exactly like two OS processes do.  A
fork-based test then exercises the genuinely cross-process path.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import BudgetExceededError, StateStoreError
from repro.store import (
    LedgerJournal,
    SharedLedgerJournal,
    StateStore,
    read_spent_totals,
)

pytestmark = pytest.mark.skipif(
    not hasattr(__import__("fcntl", fromlist=["flock"]), "flock"),
    reason="shared ledgers need fcntl file locks",
)


class TestCrossInstanceVisibility:
    def test_debits_are_visible_across_instances(self, tmp_path):
        a = SharedLedgerJournal(tmp_path, fsync="always")
        b = SharedLedgerJournal(tmp_path, fsync="always")
        a.debit("alice", 0.5, "from-a")
        assert b.spent("alice") == pytest.approx(0.5)
        b.debit("alice", 0.25, "from-b")
        assert a.spent("alice") == pytest.approx(0.75)
        assert [label for label, _ in a.entries("alice")] == [
            "from-a",
            "from-b",
        ]
        a.close()
        b.close()

    def test_limit_is_enforced_cluster_wide(self, tmp_path):
        a = SharedLedgerJournal(tmp_path, fsync="always")
        b = SharedLedgerJournal(tmp_path, fsync="always")
        a.debit_within_limit("alice", 0.8, limit=1.0)
        # Instance b has never seen alice spend, but the atomic
        # check-and-debit refreshes under the lock first — the debit
        # another "worker" journaled is binding here.
        with pytest.raises(BudgetExceededError):
            b.debit_within_limit("alice", 0.5, limit=1.0)
        b.debit_within_limit("alice", 0.2, limit=1.0)
        assert a.spent("alice") == pytest.approx(1.0)
        a.close()
        b.close()

    def test_read_spent_totals_matches_instances(self, tmp_path):
        a = SharedLedgerJournal(tmp_path, fsync="always")
        a.debit("alice", 0.5)
        a.debit("bob", 1.25)
        a.debit("alice", 0.125)
        totals = read_spent_totals(tmp_path)
        assert totals == {
            "alice": pytest.approx(0.625),
            "bob": pytest.approx(1.25),
        }
        a.close()

    def test_totals_survive_compaction_snapshot(self, tmp_path):
        # A snapshot written by an offline (exclusive) compaction must
        # still be counted by both the invariant reader and a shared
        # journal opened afterwards.
        exclusive = LedgerJournal(tmp_path, fsync="always")
        exclusive.debit("alice", 0.5)
        exclusive.compact()
        exclusive.debit("alice", 0.25)
        exclusive.close()
        shared = SharedLedgerJournal(tmp_path, fsync="always")
        assert shared.spent("alice") == pytest.approx(0.75)
        assert read_spent_totals(tmp_path)["alice"] == pytest.approx(
            0.75
        )
        shared.close()

    def test_shared_compaction_is_refused(self, tmp_path):
        journal = SharedLedgerJournal(tmp_path, fsync="always")
        journal.debit("alice", 0.5)
        with pytest.raises(StateStoreError):
            journal.compact()
        journal.close()

    def test_shared_state_store_compaction_is_refused(self, tmp_path):
        store = StateStore(tmp_path, shared=True)
        store.ledger.debit("alice", 0.5)
        with pytest.raises(StateStoreError):
            store.compact()
        store.close()


class TestConcurrentDebits:
    def test_two_instances_hammering_stay_exact(self, tmp_path):
        a = SharedLedgerJournal(tmp_path, fsync="batch")
        b = SharedLedgerJournal(tmp_path, fsync="batch")
        per_side = 100

        def hammer(journal, label):
            for index in range(per_side):
                journal.debit("alice", 0.01, f"{label}-{index}")

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(hammer, a, "a"),
                pool.submit(hammer, b, "b"),
            ]
            for future in futures:
                future.result()
        expected = math.fsum([0.01] * (2 * per_side))
        assert a.spent("alice") == pytest.approx(expected)
        assert b.spent("alice") == pytest.approx(expected)
        assert len(a.entries("alice")) == 2 * per_side
        a.sync()
        b.sync()
        assert read_spent_totals(tmp_path)["alice"] == pytest.approx(
            expected
        )
        a.close()
        b.close()


def _fork_debitor(directory, count, label):
    """Child-process body for the cross-process test (fork keeps it
    reachable without pickling)."""
    journal = SharedLedgerJournal(directory, fsync="always")
    for index in range(count):
        journal.debit("alice", 0.01, f"{label}-{index}")
    journal.close()


@pytest.mark.skipif(
    not hasattr(os, "fork"),
    reason="fork start method unavailable",
)
class TestCrossProcessDebits:
    def test_forked_processes_serialize_on_the_flock(self, tmp_path):
        context = multiprocessing.get_context("fork")
        count = 50
        children = [
            context.Process(
                target=_fork_debitor,
                args=(str(tmp_path), count, f"child-{index}"),
            )
            for index in range(2)
        ]
        parent = SharedLedgerJournal(tmp_path, fsync="always")
        for child in children:
            child.start()
        for index in range(count):
            parent.debit("alice", 0.01, f"parent-{index}")
        for child in children:
            child.join(timeout=60)
            assert child.exitcode == 0
        expected = math.fsum([0.01] * (3 * count))
        assert parent.spent("alice") == pytest.approx(expected)
        assert len(parent.entries("alice")) == 3 * count
        parent.close()
        assert read_spent_totals(tmp_path)["alice"] == pytest.approx(
            expected
        )
