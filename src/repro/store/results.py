"""Store of released results, keyed by (tenant, dataset,
snapshot_version); durable over a WAL, or in memory.

Everything the service has already released is public: a noisy result
was paid for with ε at release time, and *re-reading* it is free
post-processing under differential privacy.  Persisting released
payloads therefore costs no privacy and buys two operational
properties:

* **warm restarts** — after a crash the service's release counters
  (this store's aggregates are the only ones it keeps) come back, and
  it can answer "what did I already publish for this tenant on this
  snapshot?" without recounting (or, worse, without being tempted to
  re-run a mechanism and spend fresh ε to reconstruct an answer that
  was already bought);
* **auditability** — the store is the operator's record tying every
  published output to the tenant that requested it, the ε it cost,
  and the exact data version it was computed on.

Records are appended to one WAL *after* the debit record (the debit
is the safety-critical one); a crash that loses a trailing result
record loses only a cache entry, never accounting.

Memory model: the **full** history lives in the WAL on disk; in
memory the store keeps exact running aggregates (release counts and ε
sums per dataset — O(1) per record, never evicted) plus a bounded
per-tenant window of the most recent payloads
(:data:`RESULT_RETENTION`) for ``GET /v1/results``.  A service that
has released millions of answers does not hold millions of payloads
resident.

Ordering: every record carries a monotonically increasing
``seq`` assigned at :meth:`ResultStore.record` time and embedded *in
the record payload* — deliberately not the WAL frame number, which
:meth:`~repro.store.wal.WriteAheadLog.rewrite` renumbers from zero on
compaction.  ``results_for`` sorts its window by this sequence, so a
client's release history keeps its original order even across a
mid-run compaction or a restart over a compacted WAL.

The store also feeds the **reuse plane**
(:mod:`repro.pipeline.reuse`): each tenant gets its own
:class:`~repro.pipeline.reuse.ReuseIndex` over its stored releases —
per-tenant by construction, so reuse can never cross a tenant
boundary — rebuilt for free from the same WAL replay that fills the
window, which is how stored answers stay reusable across restarts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ValidationError
from repro.pipeline.reuse import ReuseDecision, ReuseIndex
from repro.store.wal import open_log

__all__ = ["ResultStore", "RESULT_RETENTION"]

#: WAL filename inside the state directory.
RESULTS_WAL = "results.wal"

#: Most-recent released payloads kept in memory per tenant (the
#: window ``results_for`` serves).  Older payloads remain in the WAL
#: — bounded retention caps resident memory, not the durable record.
RESULT_RETENTION = 1024


class ResultStore:
    """Append-only store of released result payloads.

    Parameters
    ----------
    directory:
        The state root; the store owns ``results.wal`` inside it.
        ``None`` keeps only the in-memory window, aggregates and
        reuse indexes (the service without ``--state-dir``).
    fsync:
        WAL fsync policy.  Results ride the same pre-release barrier
        as ε debits (one fsync covers both), so ``"batch"`` is right.
    retention:
        In-memory most-recent window per tenant (see module
        docstring); aggregates stay exact regardless.
    lock:
        Optional :class:`~repro.store.wal.FileLock` serializing WAL
        appends and replay against other worker processes sharing the
        state directory (cluster mode).
    """

    def __init__(
        self, directory, fsync: str = "batch",
        retention: int = RESULT_RETENTION, lock=None,
    ) -> None:
        if retention < 1:
            raise ValidationError(
                f"retention must be >= 1, got {retention}"
            )
        self._wal = open_log(directory, RESULTS_WAL, fsync=fsync, lock=lock)
        self._retention = retention
        #: Per-tenant most-recent entries, oldest first, bounded.
        self._by_tenant: Dict[str, Deque[Dict[str, Any]]] = {}
        #: Per-tenant reuse indexes over stored releases.
        self._reuse: Dict[str, ReuseIndex] = {}
        #: Exact running aggregates over the *full* history.
        self._counts: Dict[str, int] = {}
        self._epsilon: Dict[str, float] = {}
        self._count = 0
        self._torn_records = 0
        #: Next record-level sequence number (survives compaction —
        #: see the module docstring's ordering note).
        self._next_seq = 0
        self._load()

    def _load(self) -> None:
        replay = self._wal.replay()
        self._torn_records = replay.torn_records
        for position, record in enumerate(replay):
            if record.get("type") != "result":
                continue
            # Records written before sequences existed fall back to
            # their replay position, which preserves their pre-upgrade
            # order (position order *was* the order back then).
            seq = record.get("seq")
            if not isinstance(seq, int) or isinstance(seq, bool):
                seq = position
            self._remember(
                str(record["tenant"]),
                str(record["dataset"]),
                int(record["snapshot_version"]),
                dict(record["payload"]),
                seq=seq,
            )

    def _remember(
        self, tenant: str, dataset: str, version: int,
        payload: Dict[str, Any], seq: int,
    ) -> None:
        window = self._by_tenant.get(tenant)
        if window is None:
            window = self._by_tenant[tenant] = deque(
                maxlen=self._retention
            )
        window.append(
            {
                "seq": seq,
                "dataset": dataset,
                "snapshot_version": version,
                "payload": payload,
            }
        )
        index = self._reuse.get(tenant)
        if index is None:
            index = self._reuse[tenant] = ReuseIndex()
        index.add(dataset, version, payload)
        self._counts[dataset] = self._counts.get(dataset, 0) + 1
        epsilon = payload.get("epsilon", 0.0)
        if isinstance(epsilon, (int, float)) and not isinstance(
            epsilon, bool
        ):
            self._epsilon[dataset] = self._epsilon.get(
                dataset, 0.0
            ) + float(epsilon)
        self._count += 1
        self._next_seq = max(self._next_seq, seq + 1)

    @property
    def torn_records(self) -> int:
        """Damaged trailing WAL records dropped during recovery."""
        return self._torn_records

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Recording and lookup
    # ------------------------------------------------------------------
    def record(
        self,
        tenant: str,
        dataset: str,
        snapshot_version: Optional[int],
        payload: Dict[str, Any],
    ) -> None:
        """Persist one released payload under its serving key.

        ``snapshot_version`` may be ``None`` for releases over a
        static database (stored as version 0).  Durable at the next
        barrier — the caller's pre-release :meth:`sync` covers it.
        """
        if not tenant or not dataset:
            raise ValidationError(
                "result records need non-empty tenant and dataset"
            )
        version = int(snapshot_version or 0)
        seq = self._next_seq
        self._wal.append(
            {
                "type": "result",
                "seq": seq,
                "tenant": str(tenant),
                "dataset": str(dataset),
                "snapshot_version": version,
                "payload": dict(payload),
            }
        )
        self._remember(
            str(tenant), str(dataset), version, dict(payload), seq=seq
        )

    def sync(self) -> None:
        """Durability barrier (shared with the ledger's, typically)."""
        self._wal.sync()

    def get(
        self, tenant: str, dataset: str, snapshot_version: int
    ) -> List[Dict[str, Any]]:
        """Retained payloads for one exact (tenant, dataset, version)."""
        version = int(snapshot_version)
        return [
            entry["payload"]
            for entry in self._by_tenant.get(tenant, ())
            if entry["dataset"] == dataset
            and entry["snapshot_version"] == version
        ]

    def results_for(
        self, tenant: str, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """The tenant's retained release history, oldest first.

        Each entry carries ``dataset`` / ``snapshot_version`` /
        ``payload`` so a client can re-read its published history
        (free post-processing) after a restart.  Serves the bounded
        in-memory window (the ``retention`` most recent releases);
        ``limit`` trims to the newest ``limit`` of those.

        Sorted by each record's embedded release sequence, not WAL
        position: a compaction can rewrite the WAL mid-run, and a
        store reloaded over the compacted file must present the same
        order clients saw before (see module docstring).
        """
        window = sorted(
            self._by_tenant.get(tenant, ()),
            key=lambda entry: entry.get("seq", 0),
        )
        if limit is not None and limit >= 0:
            window = window[len(window) - min(limit, len(window)):]
        return window

    def release_counts(self) -> Dict[str, int]:
        """Per-dataset released-result counts — the service's one
        release counter (``/metrics``, ``/v1/snapshot``).

        An O(1) copy of a running aggregate — safe to call from any
        thread (a dict copy is atomic under the GIL) and exact over
        the full history, not just the retained window.
        """
        return dict(self._counts)

    def epsilon_by_dataset(self) -> Dict[str, float]:
        """Summed released ε per dataset (``/metrics``).

        Running aggregate of the ``epsilon`` field each wire payload
        carries (payloads without one contribute zero); same O(1) /
        full-history semantics as :meth:`release_counts`.
        """
        return dict(self._epsilon)

    # ------------------------------------------------------------------
    # Reuse plane
    # ------------------------------------------------------------------
    def reuse_lookup(
        self,
        tenant: str,
        dataset: str,
        snapshot_version: int,
        k: int,
        epsilon: float,
    ) -> ReuseDecision:
        """Can a stored release of *this tenant* answer (k, ε)?

        Scoped per tenant by construction — each tenant's index only
        ever sees that tenant's stored payloads — so a hit can never
        leak another tenant's release.  Unknown tenants get a plain
        miss, indistinguishable from an empty index.
        """
        index = self._reuse.get(tenant)
        if index is None:
            return ReuseDecision(
                hit=False,
                reason=(
                    f"no stored release for dataset {dataset!r} at "
                    f"snapshot {int(snapshot_version)}"
                ),
            )
        return index.lookup(dataset, snapshot_version, k, epsilon)

    def invalidate_reuse(self, dataset: str, version: int) -> int:
        """Drop reuse entries for ``dataset`` older than ``version``.

        Called after ingestion advances a dataset's snapshot; stale
        releases stay in the WAL (they remain the audit record and are
        still re-readable) but stop being reuse sources.  Returns the
        total entries dropped across all tenants.
        """
        dropped = 0
        for index in self._reuse.values():
            dropped += index.invalidate_before(dataset, version)
        return dropped

    def reuse_stats(self) -> Dict[str, object]:
        """Aggregate reuse-index telemetry across tenants."""
        entries = 0
        keys = 0
        invalidated = 0
        for index in self._reuse.values():
            snapshot = index.stats()
            entries += int(snapshot["entries"])
            keys += int(snapshot["keys"])
            invalidated += int(snapshot["invalidated"])
        return {
            "tenants": len(self._reuse),
            "entries": entries,
            "keys": keys,
            "invalidated": invalidated,
        }

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, object]:
        """Rewrite the WAL without torn tails; returns a summary.

        Reads the full history back from disk (the in-memory window
        is bounded and must not become the durable record), so this
        is an offline/maintenance operation, not a hot-path one.
        """
        wal_bytes_before = self._wal.size_bytes()
        records = list(self._wal.replay())
        self._wal.rewrite(records)
        return {
            "results": self._count,
            "wal_bytes_before": wal_bytes_before,
            "wal_bytes_after": self._wal.size_bytes(),
        }

    def close(self) -> None:
        """Barrier and close the underlying WAL handle."""
        self._wal.close()

    def stats(self) -> Dict[str, object]:
        """JSON-serializable store telemetry (``store inspect``)."""
        return {
            "results": self._count,
            "by_dataset": self.release_counts(),
            "wal_bytes": self._wal.size_bytes(),
            "torn_records": self._torn_records,
            "reuse": self.reuse_stats(),
        }

    def __repr__(self) -> str:
        return f"ResultStore(results={self._count})"
