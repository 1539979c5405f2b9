"""Per-tenant ε ledgers: write-ahead debits + snapshots.

The privacy guarantee of the whole service rests on sequential
composition over each tenant's *spent* ε.  That number must survive
crashes: if a restart reset it to zero, a tenant could spend its
``epsilon_limit`` again, and the (Σεᵢ)-DP bound the ledger exists to
enforce would be void.

:class:`LedgerJournal` makes the ledger durable with exactly one
invariant — **spent ε on disk is always ≥ ε behind released answers**:

* every debit is appended to the WAL *before* the noisy answer is
  released (the caller appends via :meth:`debit`, then calls
  :meth:`sync` before handing the answer out);
* a crash between the WAL append and the release therefore *over*-
  counts (budget forfeited, answer never published) — the safe
  direction — and can never under-count;
* recovery replays the snapshot plus the WAL and the rebuilt spent
  value is what admission checks compare against.

A journal without a directory runs over
:class:`~repro.store.wal.NullLog`: the same totals, entries and
admission check, nothing written — the service's ledger without
``--state-dir``.

Compaction folds the WAL into ``ledger.snapshot.json`` (written
atomically) and truncates the WAL, bounding replay time for
long-lived deployments without changing any recovered value.

Cluster sharing: :class:`SharedLedgerJournal` lets N worker
*processes* debit one ledger WAL concurrently.  Every mutation and
every torn-tail repair runs under one ``flock`` file lock
(``ledger.lock``), and :meth:`~SharedLedgerJournal.debit_within_limit`
makes the admission check-and-debit atomic cluster-wide — two workers
racing the last ε of a tenant's limit cannot both win.
:func:`read_spent_totals` is the matching read-only audit path (the
soak harness's invariant checker).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, List, Tuple

from repro.dp.budget import _admits
from repro.errors import (
    BudgetExceededError,
    StateStoreError,
    ValidationError,
)
from repro.store.wal import FileLock, _unframe, fsync_directory, open_log

__all__ = [
    "LedgerJournal",
    "SharedLedgerJournal",
    "read_spent_totals",
]

#: WAL filename inside the state directory.
LEDGER_WAL = "ledger.wal"

#: Compacted snapshot filename (atomic-replace target).
LEDGER_SNAPSHOT = "ledger.snapshot.json"

#: Lock file serializing cluster-shared ledger access.
LEDGER_LOCK = "ledger.lock"


def _require_debit(tenant_id: str, epsilon: float) -> None:
    """Refuse a debit no ledger may record, before any limit check."""
    if not tenant_id:
        raise ValidationError("debit needs a non-empty tenant id")
    if not (epsilon > 0) or math.isinf(epsilon):
        raise ValidationError(
            f"debit epsilon must be positive and finite, "
            f"got {epsilon!r}"
        )


class LedgerJournal:
    """Every tenant's ε ledger: the record of its debits, durable when
    the journal has a directory.

    Parameters
    ----------
    directory:
        The state directory; the journal owns ``ledger.wal`` and
        ``ledger.snapshot.json`` inside it.  ``None`` keeps the
        journal in memory only (see :class:`~repro.store.wal.NullLog`).
    fsync:
        Passed to the underlying :class:`~repro.store.wal.WriteAheadLog`
        (``"batch"`` by default: debits buffer, the pre-release
        barrier makes them durable).

    The journal keeps an in-memory aggregation (per-tenant entry
    lists) that is always exactly what replaying the files would
    produce, so live admission checks and post-crash recovery read
    the same value through the same code path.  It is the only
    per-tenant ledger the service has, in memory and on disk alike:
    :class:`~repro.service.registry.Tenant` asks it :meth:`affords`
    and spends through :meth:`debit_within_limit`.
    """

    def __init__(self, directory, fsync: str = "batch") -> None:
        self._directory = None if directory is None else Path(directory)
        self._snapshot_path = (
            None if directory is None else self._directory / LEDGER_SNAPSHOT
        )
        self._wal = open_log(directory, LEDGER_WAL, fsync=fsync)
        self._entries: Dict[str, List[Tuple[str, float]]] = {}
        #: Running per-tenant totals, kept in lockstep with
        #: ``_entries`` so admission checks are O(1) instead of
        #: re-summing a lifetime of debits per request.
        self._totals: Dict[str, float] = {}
        self._torn_records = 0
        self._load()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _load(self) -> None:
        if self._snapshot_path is not None and self._snapshot_path.exists():
            try:
                with open(
                    self._snapshot_path, "r", encoding="utf-8"
                ) as handle:
                    snapshot = json.load(handle)
            except (OSError, json.JSONDecodeError) as error:
                raise StateStoreError(
                    f"unreadable ledger snapshot "
                    f"{str(self._snapshot_path)!r}: {error}"
                )
            for tenant, entries in snapshot.get("tenants", {}).items():
                self._entries[tenant] = [
                    (str(entry["label"]), float(entry["epsilon"]))
                    for entry in entries
                ]
        replay = self._wal.replay()
        self._torn_records = replay.torn_records
        for record in replay:
            if record.get("type") != "debit":
                continue
            self._entries.setdefault(str(record["tenant"]), []).append(
                (str(record.get("label", "")), float(record["epsilon"]))
            )
        self._totals = {
            tenant: math.fsum(epsilon for _, epsilon in entries)
            for tenant, entries in self._entries.items()
        }

    @property
    def torn_records(self) -> int:
        """Damaged trailing WAL records dropped during recovery."""
        return self._torn_records

    # ------------------------------------------------------------------
    # Live accounting
    # ------------------------------------------------------------------
    def debit(
        self, tenant_id: str, epsilon: float, label: str = ""
    ) -> None:
        """Record one ε debit (write-ahead; durable at next barrier).

        Appends to the WAL *and* the in-memory aggregation, so
        :meth:`spent` reflects the debit immediately — the caller must
        still :meth:`sync` before releasing the corresponding noisy
        answer.
        """
        _require_debit(tenant_id, epsilon)
        self._wal.append(
            {
                "type": "debit",
                "tenant": str(tenant_id),
                "epsilon": float(epsilon),
                "label": str(label),
            }
        )
        tenant_id = str(tenant_id)
        self._entries.setdefault(tenant_id, []).append(
            (str(label), float(epsilon))
        )
        self._totals[tenant_id] = self._totals.get(
            tenant_id, 0.0
        ) + float(epsilon)

    def _check_within_limit(
        self, tenant_id: str, epsilon: float, limit: float
    ) -> None:
        """Raise :class:`~repro.errors.BudgetExceededError` if the
        debit would push the tenant past ``limit`` (reads the totals
        as they are; the shared journal calls it under its lock)."""
        _require_debit(tenant_id, epsilon)
        spent = self._totals.get(str(tenant_id), 0.0)
        if not _admits(epsilon, spent, float(limit)):
            raise BudgetExceededError(
                epsilon, max(0.0, float(limit) - spent)
            )

    def debit_within_limit(
        self, tenant_id: str, epsilon: float, limit: float,
        label: str = "",
    ) -> None:
        """Check ``limit`` against the journaled total, then debit.

        The one way a tenant spends
        (:meth:`~repro.service.registry.Tenant.charge`): check and debit
        happen against the same journal state, so the journal itself
        enforces the per-tenant cap.  In this single-process
        journal the two steps cannot interleave with anything;
        :class:`SharedLedgerJournal` overrides this to make the pair
        atomic across worker processes.
        """
        self._check_within_limit(tenant_id, epsilon, limit)
        self.debit(tenant_id, epsilon, label)

    def sync(self) -> None:
        """Durability barrier — call before releasing a noisy answer."""
        self._wal.sync()

    def spent(self, tenant_id: str) -> float:
        """Journaled ε spent by ``tenant_id`` (0.0 if never seen).

        This is *the* spent value: admission checks compare against
        it live, and recovery rebuilds it from disk, so the two paths
        cannot diverge.  O(1): a running total maintained per debit,
        exactly re-derived (``math.fsum``) at every load.
        """
        return self._totals.get(tenant_id, 0.0)

    def remaining(self, tenant_id: str, limit: float) -> float:
        """ε left to ``tenant_id`` under ``limit``; never negative (a
        recovered over-count clamps to zero)."""
        return max(0.0, float(limit) - self.spent(tenant_id))

    def affords(
        self, tenant_id: str, epsilon: float, limit: float
    ) -> bool:
        """Would :meth:`debit_within_limit` admit ``epsilon`` now?

        The same inequality, so single releases, batches (asking for
        their total up front) and ``/v1/plan`` quotes admit exactly
        the requests a debit would.
        """
        return _admits(epsilon, self.spent(tenant_id), float(limit))

    def entries(self, tenant_id: str) -> List[Tuple[str, float]]:
        """The ``(label, epsilon)`` debit history for one tenant."""
        return list(self._entries.get(tenant_id, []))

    def tenant_ids(self) -> List[str]:
        """Every tenant with at least one journaled debit."""
        return list(self._entries)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, object]:
        """Fold the WAL into the snapshot file; returns a summary.

        The snapshot is written to a temp file, fsynced, and renamed
        into place *before* the WAL is truncated, so a crash at any
        point leaves a state that replays to the same ledger.
        """
        wal_bytes_before = self._wal.size_bytes()
        snapshot = {
            "tenants": {
                tenant: [
                    {"label": label, "epsilon": epsilon}
                    for label, epsilon in entries
                ]
                for tenant, entries in self._entries.items()
            }
        }
        self._directory.mkdir(parents=True, exist_ok=True)
        temp = self._snapshot_path.with_suffix(".json.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self._snapshot_path)
        # Flush the rename before truncating the WAL: power loss must
        # never surface the empty WAL alongside the *old* snapshot.
        fsync_directory(self._directory)
        self._wal.rewrite(())
        return {
            "tenants": len(self._entries),
            "wal_bytes_before": wal_bytes_before,
            "wal_bytes_after": self._wal.size_bytes(),
        }

    def close(self) -> None:
        """Barrier and close the underlying WAL handle."""
        self._wal.close()

    def stats(self) -> Dict[str, object]:
        """JSON-serializable journal telemetry (``store inspect``)."""
        return {
            "tenants": {
                tenant: {
                    "spent": self._totals.get(tenant, 0.0),
                    "debits": len(entries),
                }
                for tenant, entries in sorted(self._entries.items())
            },
            "wal_bytes": self._wal.size_bytes(),
            "torn_records": self._torn_records,
            "fsyncs": self._wal.syncs,
        }

    def __repr__(self) -> str:
        return (
            f"LedgerJournal({str(self._directory)!r}, "
            f"tenants={len(self._entries)})"
        )


class SharedLedgerJournal(LedgerJournal):
    """A ledger journal safe for N worker *processes* on one WAL.

    The cluster's single point of ε truth.  Three things change
    relative to the single-process base class, all serialized on one
    ``flock`` file lock (``ledger.lock``):

    * **Tail-following refresh** — before any read or write the
      journal folds in records other workers appended since its last
      look (an offset-tracked incremental read, not a full replay).
    * **Locked torn-tail repair** — a partial line can only belong to
      a *dead* writer (live appends complete inside the lock), so the
      refresh truncates it safely; the unlocked base-class behavior
      would let a restarting worker chop off debits live workers had
      already acknowledged.
    * **Atomic admission** — :meth:`debit_within_limit` runs
      refresh → check → append as one critical section, so the
      per-tenant ``epsilon_limit`` holds cluster-wide even when two
      workers race for the last of a tenant's budget.

    :meth:`compact` is refused: rewriting the WAL moves it to a new
    inode while other workers hold ``O_APPEND`` handles to the old
    one, silently losing their debits.  Compact offline (cluster
    stopped) with the regular :class:`LedgerJournal` instead; the
    refresh detects the shrunken file and reloads.
    """

    def __init__(self, directory, fsync: str = "batch") -> None:
        self._lock = FileLock(Path(directory) / LEDGER_LOCK)
        with self._lock.held():
            super().__init__(directory, fsync=fsync)
            self._offset = self._wal.size_bytes()

    # ------------------------------------------------------------------
    # Cross-process refresh (caller holds the lock)
    # ------------------------------------------------------------------
    def _reload_locked(self) -> None:
        """Full reload after the WAL shrank (offline compaction)."""
        self._wal.close()
        self._entries = {}
        self._totals = {}
        self._load()
        self._offset = self._wal.size_bytes()

    def _refresh_locked(self) -> None:
        """Fold in records other workers appended since our last look.

        Caller holds the lock.  Reads only the new byte range; a
        damaged or partial tail belongs to a dead writer (nobody can
        be mid-append while we hold the lock) and is truncated off —
        the locked repair that makes crash recovery safe with live
        writers.
        """
        size = self._wal.size_bytes()
        if size < self._offset:
            self._reload_locked()
            return
        if size == self._offset:
            return
        with open(self._wal.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        consumed = 0
        repair_at = None
        while True:
            newline = data.find(b"\n", consumed)
            if newline < 0:
                if consumed < len(data):
                    repair_at = consumed  # dead writer's partial line
                break
            parsed = _unframe(data[consumed:newline])
            if parsed is None:
                repair_at = consumed
                break
            _, payload = parsed
            if payload.get("type") == "debit":
                tenant = str(payload["tenant"])
                epsilon = float(payload["epsilon"])
                self._entries.setdefault(tenant, []).append(
                    (str(payload.get("label", "")), epsilon)
                )
                self._totals[tenant] = self._totals.get(
                    tenant, 0.0
                ) + epsilon
            consumed = newline + 1
        if repair_at is not None:
            self._torn_records += 1
            self._wal.close()
            with open(self._wal.path, "rb+") as handle:
                handle.truncate(self._offset + repair_at)
                handle.flush()
                os.fsync(handle.fileno())
            self._offset += repair_at
        else:
            self._offset += consumed

    # ------------------------------------------------------------------
    # Locked overrides
    # ------------------------------------------------------------------
    def debit(
        self, tenant_id: str, epsilon: float, label: str = ""
    ) -> None:
        """Record one debit, serialized against every other worker."""
        with self._lock.held():
            self._refresh_locked()
            super().debit(tenant_id, epsilon, label)
            self._offset = self._wal.size_bytes()

    def debit_within_limit(
        self, tenant_id: str, epsilon: float, limit: float,
        label: str = "",
    ) -> None:
        """Atomic cluster-wide check-and-debit (see class docstring)."""
        with self._lock.held():
            self._refresh_locked()
            self._check_within_limit(tenant_id, epsilon, limit)
            super().debit(tenant_id, epsilon, label)
            self._offset = self._wal.size_bytes()

    def spent(self, tenant_id: str) -> float:
        """Cluster-wide journaled spent ε (refreshes first)."""
        with self._lock.held():
            self._refresh_locked()
        return super().spent(tenant_id)

    def entries(self, tenant_id: str) -> List[Tuple[str, float]]:
        """Cluster-wide debit history for one tenant (refreshes first)."""
        with self._lock.held():
            self._refresh_locked()
        return super().entries(tenant_id)

    def tenant_ids(self) -> List[str]:
        """Every tenant any worker has debited (refreshes first)."""
        with self._lock.held():
            self._refresh_locked()
        return super().tenant_ids()

    def stats(self) -> Dict[str, object]:
        """Cluster-wide journal telemetry (refreshes first)."""
        with self._lock.held():
            self._refresh_locked()
        return super().stats()

    def compact(self) -> Dict[str, object]:
        """Refused: see the class docstring (compact offline)."""
        raise StateStoreError(
            "a shared ledger journal cannot compact while workers may "
            "be writing; stop the cluster and run "
            "'store compact' offline"
        )

    def __repr__(self) -> str:
        return (
            f"SharedLedgerJournal({str(self._directory)!r}, "
            f"tenants={len(self._entries)})"
        )


def read_spent_totals(directory) -> Dict[str, float]:
    """Audit read of cluster-wide journaled spent ε per tenant.

    Parses ``ledger.snapshot.json`` plus ``ledger.wal`` directly —
    under the shared ``flock`` so it serializes with live debits, but
    strictly read-only (never truncates, never appends, keeps no
    state).  This is the invariant checker's view: after any fault,
    ``read_spent_totals(dir)[tenant]`` must be ≥ the ε behind every
    answer that tenant has actually received.
    """
    root = Path(directory)
    collected: Dict[str, List[float]] = {}
    with FileLock(root / LEDGER_LOCK).held():
        snapshot_path = root / LEDGER_SNAPSHOT
        if snapshot_path.exists():
            with open(snapshot_path, "r", encoding="utf-8") as handle:
                snapshot = json.load(handle)
            for tenant, items in snapshot.get("tenants", {}).items():
                collected.setdefault(str(tenant), []).extend(
                    float(item["epsilon"]) for item in items
                )
        wal_path = root / LEDGER_WAL
        if wal_path.exists():
            with open(wal_path, "rb") as handle:
                lines = handle.read().split(b"\n")
            if lines and lines[-1] == b"":
                lines.pop()
            for line in lines:
                parsed = _unframe(line)
                if parsed is None:
                    break  # torn tail: nothing after it was acked
                _, payload = parsed
                if payload.get("type") != "debit":
                    continue
                collected.setdefault(
                    str(payload["tenant"]), []
                ).append(float(payload["epsilon"]))
    return {
        tenant: math.fsum(values)
        for tenant, values in collected.items()
    }
