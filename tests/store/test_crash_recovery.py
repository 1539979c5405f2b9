"""Crash-recovery property suite for the durable state store.

The one invariant the DP guarantee needs from persistence:

    **journaled spent ε ≥ ε behind released answers, at every instant,
    through any crash.**

The suite drives the exact discipline the service uses (debit → mine
→ record result → **barrier** → release answer) against a real
:class:`StateStore`, then simulates a crash at arbitrary points —
including *power loss*, modeled by truncating each WAL to a random
byte length no earlier than its last durability barrier (appends
between the last barrier and the crash may or may not survive, and
may survive torn).  Recovery then must show:

* never under-counted: every released answer's ε is journaled;
* deterministic replay: reopening twice yields identical ledgers and
  versions;
* behavioral equivalence: a tenant that was over its limit before the
  crash still gets refused (403 path) after recovery.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.errors import BudgetExceededError
from repro.store import StateStore


class CrashNow(Exception):
    """Injected mid-operation crash."""


class CrashHarness:
    """Drives release/ingest against a store with injectable crashes.

    Tracks, per WAL file, the byte length at the last durability
    barrier.  :meth:`power_loss` truncates each WAL to a random length
    between that barrier point and the current end — exactly the set
    of post-crash disk states an fsync-honoring kernel permits —
    optionally leaving a torn partial record at the cut.
    """

    #: Named points release() can crash at, in execution order.
    RELEASE_CRASH_POINTS = (
        "after_debit", "after_mine", "after_record", "after_barrier",
    )

    def __init__(self, state_dir, tenants):
        self.state_dir = state_dir
        self.limits = dict(tenants)
        self.store = StateStore(state_dir, fsync="batch")
        #: ε per released (acknowledged) answer, per tenant — the
        #: ground truth the journal must never under-count.
        self.released = {tenant: [] for tenant in tenants}
        #: Ingest batches acknowledged to the feed, per dataset.
        self.acked_versions = {}
        self._wal_paths = {
            "ledger": self.store.ledger._wal.path,
            "results": self.store.results._wal.path,
        }
        self._synced_sizes = {}

    # -- barrier tracking ----------------------------------------------
    def _note_barrier(self) -> None:
        for name, path in self._wal_paths.items():
            self._synced_sizes[name] = (
                os.path.getsize(path) if path.exists() else 0
            )

    def track_dataset(self, dataset: str) -> None:
        log = self.store.dataset_log(dataset)
        self._wal_paths[f"log:{dataset}"] = log._wal.path
        self.acked_versions.setdefault(dataset, 0)

    # -- the service discipline ----------------------------------------
    def spent(self, tenant: str) -> float:
        return self.store.ledger.spent(tenant)

    def remaining(self, tenant: str) -> float:
        return max(0.0, self.limits[tenant] - self.spent(tenant))

    def release(self, tenant, epsilon, crash_at=None) -> bool:
        """One release following the service's exact ordering.

        Returns True when the answer was released (acknowledged);
        raises :class:`CrashNow` when the injected crash fired first.
        """
        if epsilon > self.remaining(tenant) + 1e-12:
            raise BudgetExceededError(epsilon, self.remaining(tenant))
        self.store.ledger.debit(tenant, epsilon, "release")
        if crash_at == "after_debit":
            raise CrashNow()
        noisy = {"epsilon": epsilon, "noise": 0.0}  # the mining stand-in
        if crash_at == "after_mine":
            raise CrashNow()
        self.store.results.record(tenant, "d", 0, noisy)
        if crash_at == "after_record":
            raise CrashNow()
        self.store.barrier()
        self._note_barrier()
        if crash_at == "after_barrier":
            # Crash after durability but before the client saw the
            # answer: over-counts (budget forfeited), never under.
            raise CrashNow()
        self.released[tenant].append(epsilon)
        return True

    def ingest(self, dataset, rows, crash_at=None) -> None:
        log = self.store.dataset_log(dataset)
        version = log.record_append(rows)
        if crash_at == "after_append":
            raise CrashNow()
        log.sync()
        self._synced_sizes[f"log:{dataset}"] = os.path.getsize(
            log._wal.path
        )
        if crash_at == "after_sync":
            raise CrashNow()
        self.acked_versions[dataset] = version

    # -- crash simulation ----------------------------------------------
    def power_loss(self, rng) -> None:
        """Truncate every WAL to a random length ≥ its last barrier."""
        self.store.close()
        for name, path in self._wal_paths.items():
            if not path.exists():
                continue
            synced = self._synced_sizes.get(name, 0)
            current = os.path.getsize(path)
            if current > synced:
                cut = int(rng.integers(synced, current + 1))
                with open(path, "rb+") as handle:
                    handle.truncate(cut)

    def recover(self) -> StateStore:
        self.store = StateStore(self.state_dir, fsync="batch")
        return self.store

    def assert_never_undercounted(self) -> None:
        for tenant, epsilons in self.released.items():
            journaled = self.store.ledger.spent(tenant)
            acknowledged = math.fsum(epsilons)
            assert journaled >= acknowledged - 1e-12, (
                f"{tenant}: journal says {journaled}, but "
                f"{acknowledged} was released — under-count!"
            )

    def close(self) -> None:
        self.store.close()


TENANTS = {"alice": 2.0, "bob": 1.0, "carol": 0.5}


class TestSingleCrashPoints:
    """Every crash point in the release path, deterministically."""

    @pytest.mark.parametrize(
        "crash_at", CrashHarness.RELEASE_CRASH_POINTS
    )
    def test_release_crash_never_undercounts(self, tmp_path, crash_at):
        harness = CrashHarness(tmp_path, TENANTS)
        harness.release("alice", 0.5)  # a completed release first
        with pytest.raises(CrashNow):
            harness.release("alice", 0.25, crash_at=crash_at)
        harness.power_loss(np.random.default_rng(7))
        harness.recover()
        harness.assert_never_undercounted()
        # The completed release survives any later crash exactly.
        assert harness.spent("alice") >= 0.5 - 1e-12
        harness.close()

    def test_crash_after_barrier_overcounts_safely(self, tmp_path):
        # The one-sided error direction, pinned: debit durable, answer
        # never released → spent is strictly larger than released.
        harness = CrashHarness(tmp_path, TENANTS)
        with pytest.raises(CrashNow):
            harness.release("alice", 0.5, crash_at="after_barrier")
        harness.power_loss(np.random.default_rng(3))
        harness.recover()
        assert harness.spent("alice") == pytest.approx(0.5)
        assert harness.released["alice"] == []  # forfeited, not leaked
        harness.close()

    def test_ingest_crash_before_sync_may_lose_only_unacked_batches(
        self, tmp_path
    ):
        harness = CrashHarness(tmp_path, TENANTS)
        harness.track_dataset("d")
        harness.ingest("d", [[1, 2]])  # acknowledged
        with pytest.raises(CrashNow):
            harness.ingest("d", [[3]], crash_at="after_append")
        harness.power_loss(np.random.default_rng(11))
        store = harness.recover()
        version, rows = store.dataset_log("d").replay()
        # The acknowledged batch is never lost; the unacked one may or
        # may not have survived, but versions stay consistent.
        assert version >= harness.acked_versions["d"] == 1
        assert rows[:2] == [[1, 2]]
        harness.close()


class TestRandomizedCrashSweep:
    """Seeded random workloads × random crash points × power loss."""

    @pytest.mark.parametrize("seed", range(12))
    def test_invariant_holds_through_random_crashes(
        self, tmp_path, seed
    ):
        rng = np.random.default_rng(seed)
        harness = CrashHarness(tmp_path / f"s{seed}", TENANTS)
        harness.track_dataset("d")
        tenants = list(TENANTS)
        crashed = False
        for step in range(int(rng.integers(3, 12))):
            tenant = tenants[int(rng.integers(len(tenants)))]
            crash_at = None
            if rng.random() < 0.35:
                crash_at = str(
                    rng.choice(
                        list(CrashHarness.RELEASE_CRASH_POINTS)
                        + ["after_append", "after_sync"]
                    )
                )
            try:
                if crash_at in ("after_append", "after_sync"):
                    harness.ingest(
                        "d", [[int(rng.integers(5))]], crash_at=crash_at
                    )
                elif rng.random() < 0.8:
                    harness.release(
                        tenant,
                        float(rng.uniform(0.05, 0.4)),
                        crash_at=crash_at,
                    )
                else:
                    harness.ingest("d", [[int(rng.integers(5))]])
            except CrashNow:
                crashed = True
                break
            except BudgetExceededError:
                continue
        if crashed:
            harness.power_loss(rng)
        harness.recover()
        harness.assert_never_undercounted()
        harness.close()


class TestReplayDeterminism:
    """Restart replay reproduces identical state, twice over."""

    def test_double_recovery_is_identical(self, tmp_path):
        harness = CrashHarness(tmp_path, TENANTS)
        harness.track_dataset("d")
        harness.release("alice", 0.7)
        harness.ingest("d", [[1], [2, 3]])
        harness.release("bob", 0.9)
        with pytest.raises(CrashNow):
            harness.release("carol", 0.3, crash_at="after_record")
        harness.power_loss(np.random.default_rng(5))

        first = harness.recover()
        ledger_one = {
            tenant: first.ledger.entries(tenant) for tenant in TENANTS
        }
        version_one, rows_one = first.dataset_log("d").replay()
        results_one = first.results.results_for("alice")
        first.close()

        second = StateStore(harness.state_dir)
        assert ledger_one == {
            tenant: second.ledger.entries(tenant) for tenant in TENANTS
        }
        version_two, rows_two = second.dataset_log("d").replay()
        assert (version_one, rows_one) == (version_two, rows_two)
        assert results_one == second.results.results_for("alice")
        second.close()

    def test_exhausted_tenant_still_refused_after_recovery(
        self, tmp_path
    ):
        harness = CrashHarness(tmp_path, TENANTS)
        harness.release("carol", 0.5)  # carol's whole limit
        with pytest.raises(BudgetExceededError):
            harness.release("carol", 0.1)
        harness.power_loss(np.random.default_rng(9))
        harness.recover()
        # Same refusal through the same journaled-spent check.
        with pytest.raises(BudgetExceededError):
            harness.release("carol", 0.1)
        assert harness.remaining("carol") == pytest.approx(0.0)
        harness.close()
