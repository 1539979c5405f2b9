"""Durable state: write-ahead ε ledgers, dataset logs, result store.

Everything that must survive a crash for the service's DP guarantee
to hold lives here.  The design principle is **write-ahead in the
safe direction**: an ε debit is journaled (and fsynced) *before* the
noisy answer is released, so a crash at any instant can over-count
spent budget but never under-count it — budget is forfeited, privacy
is not.

* :mod:`repro.store.wal` — the CRC-framed, torn-tail-tolerant WAL
  primitive with batched fsync (group commit).
* :mod:`repro.store.ledger` — durable per-tenant ε debits.
* :mod:`repro.store.logstore` — per-dataset ingest persistence with
  snapshot-version checkpoints.
* :mod:`repro.store.results` — released results keyed by
  ``(tenant, dataset, snapshot_version)`` for warm restarts/audits.
* :mod:`repro.store.state` — the :class:`StateStore` facade owning
  the ``--state-dir`` layout (or running in memory without one) and
  the recovery report.

See ``docs/operations.md`` for the deployment and crash-recovery
runbook, and ``docs/privacy-accounting.md`` for why durability is
part of the privacy argument.
"""

from repro.store.ledger import (
    LedgerJournal,
    SharedLedgerJournal,
    read_spent_totals,
)
from repro.store.logstore import DatasetLogStore
from repro.store.results import ResultStore
from repro.store.state import RecoveryReport, StateStore
from repro.store.wal import FileLock, ReplayResult, WriteAheadLog

__all__ = [
    "DatasetLogStore",
    "FileLock",
    "LedgerJournal",
    "RecoveryReport",
    "ReplayResult",
    "ResultStore",
    "SharedLedgerJournal",
    "StateStore",
    "WriteAheadLog",
    "read_spent_totals",
]
