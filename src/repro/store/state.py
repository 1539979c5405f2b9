"""The state store: one directory, three write-ahead stores.

:class:`StateStore` is the facade the service (and the ``store`` CLI)
talks to, and the service's one persistence path.  Durable, it owns a
``--state-dir`` with this layout::

    <state-dir>/
    ├── ledger.wal                    ε debits (write-ahead)
    ├── ledger.snapshot.json          compacted ledger state
    ├── results.wal                   released result payloads
    └── logs/
        ├── <dataset>.wal             ingested deltas, one per batch
        └── <dataset>.checkpoint.json compacted delta state

Everything in the directory is rebuildable from the WALs alone; the
snapshot/checkpoint files only bound replay time.  The directory can
be copied while the service runs (files are append-only between
compactions) and inspected offline with
``python -m repro.experiments.cli store inspect --state-dir DIR``.

Without a directory (``StateStore(None)``, the service without
``--state-dir``) the same three stores run over
:class:`~repro.store.wal.NullLog`: nothing is written or replayed, the
result store keeps its bounded window, aggregates and per-tenant
reuse indexes, and dataset logs only number versions.

Why the ledger is the load-bearing piece: the DP guarantee is
sequential composition over *spent* ε, so the one invariant recovery
must never violate is **journaled spent ≥ released spent** — see
:mod:`repro.store.ledger` and ``docs/operations.md``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import StateStoreError
from repro.store.ledger import LedgerJournal, SharedLedgerJournal
from repro.store.logstore import DatasetLogStore, sanitize_dataset_name
from repro.store.results import ResultStore
from repro.store.wal import FileLock, require_directory

__all__ = ["StateStore", "RecoveryReport"]

#: Sentinel distinguishing "not specified" from an explicit ``None``
#: (which :class:`~repro.store.logstore.DatasetLogStore` takes as
#: "disable automatic checkpointing").
_UNSET = object()


class RecoveryReport:
    """What a restart recovered from a state directory.

    Surfaced on ``GET /healthz`` (``persistence.recovery``) so an
    operator can confirm, without reading logs, that the ledgers and
    data versions a restarted service serves are the pre-crash ones.
    Dataset entries appear as sessions are (re)built, since dataset
    replay is lazy.
    """

    def __init__(self) -> None:
        #: Tenants whose journaled debits were restored, with spent ε.
        self.tenants: Dict[str, float] = {}
        #: Datasets replayed into warm sessions, with their versions.
        self.datasets: Dict[str, int] = {}
        #: Released results rehydrated from the result store.
        self.results = 0
        #: Torn trailing WAL records dropped across all stores.
        self.torn_records = 0

    def note_dataset(self, dataset: str, version: int) -> None:
        """Record one dataset's replay (called at session build)."""
        self.datasets[dataset] = int(version)

    def to_wire(self) -> Dict[str, object]:
        """The ``/healthz`` payload fragment."""
        return {
            "tenants": {
                tenant: spent
                for tenant, spent in sorted(self.tenants.items())
            },
            "datasets": dict(sorted(self.datasets.items())),
            "results": self.results,
            "torn_records": self.torn_records,
        }

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(tenants={len(self.tenants)}, "
            f"datasets={len(self.datasets)}, results={self.results}, "
            f"torn={self.torn_records})"
        )


class StateStore:
    """All state for one service instance (see module docs).

    Parameters
    ----------
    root:
        The state directory (created if missing; must not be a file),
        or ``None`` for an in-memory store that creates no file.
    fsync:
        WAL fsync policy for every store —
        one of :data:`~repro.store.wal.FSYNC_POLICIES`.  ``"batch"``
        (default) is the production setting: appends buffer and the
        pre-release/pre-acknowledge barriers make them durable.
    checkpoint_interval:
        Ingest batches between automatic per-dataset checkpoint folds;
        ``None`` disables automatic checkpointing, omitting it keeps
        the per-dataset default (64).
    shared:
        ``True`` when several worker *processes* serve this directory
        at once (the cluster of :mod:`repro.service.cluster`).  The
        ledger becomes a :class:`~repro.store.ledger.SharedLedgerJournal`
        (flock-serialized, cluster-atomic admission) and the result /
        dataset WALs serialize their appends and replay repair on a
        shared ``store.lock``; :meth:`compact` is refused (offline
        only).  The default ``False`` keeps the single-writer fast
        path byte-for-byte as before.
    """

    def __init__(
        self,
        root,
        fsync: str = "batch",
        checkpoint_interval=_UNSET,
        shared: bool = False,
    ) -> None:
        self.root = None if root is None else require_directory(root)
        #: ``False`` for the in-memory store: nothing survives a restart.
        self.durable = self.root is not None
        self._fsync = fsync
        self._checkpoint_interval = checkpoint_interval
        self.shared = bool(shared)
        self._store_lock = (
            FileLock(self.root / "store.lock") if self.shared else None
        )
        if self.shared:
            self.ledger = SharedLedgerJournal(self.root, fsync=fsync)
        else:
            self.ledger = LedgerJournal(self.root, fsync=fsync)
        self.results = ResultStore(
            self.root, fsync=fsync, lock=self._store_lock
        )
        self._dataset_logs: Dict[str, DatasetLogStore] = {}
        self._stems: Dict[str, str] = {}
        self.recovery = RecoveryReport()
        for tenant_id in self.ledger.tenant_ids():
            self.recovery.tenants[tenant_id] = self.ledger.spent(
                tenant_id
            )
        self.recovery.results = len(self.results)
        self.recovery.torn_records = (
            self.ledger.torn_records + self.results.torn_records
        )

    def dataset_log(self, dataset: str) -> DatasetLogStore:
        """The (lazily opened) append store for one dataset.

        Filename stems are sanitized, which is not injective — two
        datasets colliding on one stem would interleave version
        records in a single WAL and serve each other's data after a
        restart, so a collision is refused as a config error (an
        in-memory store has no files to share and allows it).
        """
        store = self._dataset_logs.get(dataset)
        if store is None:
            stem = sanitize_dataset_name(dataset)
            claimed = self._stems.get(stem) if self.durable else None
            if claimed is not None and claimed != dataset:
                raise StateStoreError(
                    f"datasets {claimed!r} and {dataset!r} both "
                    f"persist as {stem!r}; rename one of them"
                )
            kwargs = {}
            if self._checkpoint_interval is not _UNSET:
                kwargs["checkpoint_interval"] = self._checkpoint_interval
            store = DatasetLogStore(
                self.root, dataset, fsync=self._fsync,
                lock=self._store_lock, **kwargs
            )
            self._stems[stem] = dataset
            self._dataset_logs[dataset] = store
            self.recovery.torn_records += store.torn_records
        return store

    def barrier(self) -> None:
        """One durability barrier over the ledger and result WALs.

        This is the fsync the hot release path pays: the ε debit
        (appended before mining) and the result record (appended
        after) both become durable here, immediately before the noisy
        answer goes on the wire.  Overlapping releases share it —
        whichever barrier runs first covers everything buffered.
        """
        self.ledger.sync()
        self.results.sync()

    def compact(self) -> Dict[str, object]:
        """Fold every WAL into its snapshot/checkpoint; returns the
        per-store summaries (the ``store compact`` CLI output).

        Also opens (and compacts) any dataset logs present on disk
        that no session has touched yet, so an offline ``store
        compact`` covers the whole directory.  Refused on a shared
        store: compaction renames WALs out from under other workers'
        append handles — stop the cluster and compact offline.  Refused
        on an in-memory store too: it has no WAL to fold.
        """
        if not self.durable:
            raise StateStoreError("an in-memory state store has no WALs")
        if self.shared:
            raise StateStoreError(
                "cannot compact a cluster-shared state directory "
                "while workers may be writing; stop the cluster and "
                "run 'store compact' offline"
            )
        for store in self._scan_dataset_logs():
            self._dataset_logs.setdefault(store.dataset, store)
        return {
            "ledger": self.ledger.compact(),
            "results": self.results.compact(),
            "datasets": [
                store.compact()
                for _, store in sorted(self._dataset_logs.items())
            ],
        }

    def _scan_dataset_logs(self) -> List[DatasetLogStore]:
        """Open stores for dataset logs found on disk but not in
        memory (offline inspect/compact over a copied directory).

        Each log's files record the dataset's *original* name (the
        filename stem is a lossy sanitization), so the scan recovers
        real names instead of guessing — a later live
        :meth:`dataset_log` for the same dataset reuses the store
        rather than tripping the collision check against its own
        stem.
        """
        from repro.store.logstore import LOGS_SUBDIR, stored_dataset_name

        found: List[DatasetLogStore] = []
        logs_dir = self.root / LOGS_SUBDIR
        if not logs_dir.is_dir():
            return found
        stems = {
            path.name[: -len(".wal")]
            for path in logs_dir.glob("*.wal")
        } | {
            path.name[: -len(".checkpoint.json")]
            for path in logs_dir.glob("*.checkpoint.json")
        }
        for stem in sorted(stems):
            if stem in self._stems:
                continue
            name = stored_dataset_name(self.root, stem) or stem
            if name not in self._dataset_logs:
                found.append(self.dataset_log(name))
        return found

    def inspect(self) -> Dict[str, object]:
        """One JSON-serializable view of everything in the directory
        (the ``store inspect`` CLI output)."""
        for store in self._scan_dataset_logs():
            self._dataset_logs.setdefault(store.dataset, store)
        return {
            "state_dir": str(self.root),
            "fsync": self._fsync,
            "ledger": self.ledger.stats(),
            "results": self.results.stats(),
            "datasets": {
                name: store.stats()
                for name, store in sorted(self._dataset_logs.items())
            },
        }

    def close(self) -> None:
        """Barrier and close every underlying WAL handle."""
        self.ledger.close()
        self.results.close()
        for store in self._dataset_logs.values():
            store.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        root = str(self.root) if self.durable else None
        return f"StateStore({root!r}, fsync={self._fsync!r})"
