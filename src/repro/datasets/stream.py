"""Append-only transaction log with versioned copy-on-write snapshots.

PrivBasis (the paper) assumes a static database, but a production feed
appends transactions continuously — clickstreams, baskets, search
logs.  :class:`TransactionLog` is the dataset-layer answer: an
append-only log of transactions over a *fixed, public* item vocabulary
(the paper's AOL setting, where ``I`` is known up front) that exposes
the data as a sequence of immutable, versioned **snapshots**.

Versioning model
----------------
* Version ``0`` is the log's initial contents (possibly empty); every
  :meth:`TransactionLog.append` produces a new version.  Versions are
  strictly nested prefixes: the transactions of version ``v`` are the
  first ``N_v`` transactions of every later version.
* :meth:`TransactionLog.snapshot` materializes any version as an
  ordinary immutable
  :class:`~repro.datasets.transactions.TransactionDatabase` —
  downstream code (backends, sessions, miners) never learns it came
  from a stream.
* Snapshots are **copy-on-write**: the latest snapshot is advanced
  incrementally via :meth:`TransactionDatabase.extended`, so its warm
  derived state (item-support cache, tid-list index) carries over
  across appends instead of being rebuilt, and every other version is
  a zero-copy :meth:`~TransactionDatabase.slice` of it.

Nothing in this module touches privacy: a snapshot is exact data, and
all DP accounting happens downstream when mechanisms release
statistics computed over one pinned snapshot (see
``docs/streaming.md`` for why releases over a growing log still
compose under the per-tenant ε ledger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError

__all__ = ["LogSnapshot", "TransactionLog"]

@dataclass(frozen=True)
class LogSnapshot:
    """One immutable, versioned view of a :class:`TransactionLog`.

    ``database`` is a plain
    :class:`~repro.datasets.transactions.TransactionDatabase` holding
    exactly the transactions the log had at ``version``; it stays
    valid (and bit-identical) forever, regardless of later appends.
    """

    version: int
    database: TransactionDatabase

    @property
    def num_transactions(self) -> int:
        """``N`` at this version."""
        return self.database.num_transactions

    def __repr__(self) -> str:
        return (
            f"LogSnapshot(version={self.version}, "
            f"N={self.num_transactions})"
        )


class TransactionLog:
    """Append-only transactions over a fixed vocabulary, with versions.

    Parameters
    ----------
    num_items:
        The (public) item vocabulary size ``|I|``.  Fixed for the
        log's lifetime: an appended transaction naming an item outside
        ``[0, num_items)`` is rejected, because growing the vocabulary
        would silently change the shape of every item-support vector
        downstream.
    transactions:
        Optional initial contents (becomes version ``0``).
    item_labels:
        Optional external item names, ``len == num_items``.
    """

    def __init__(
        self,
        num_items: int,
        transactions: Iterable[Iterable[int]] = (),
        item_labels: Optional[Sequence[str]] = None,
    ) -> None:
        if int(num_items) < 0:
            raise ValidationError(
                f"num_items must be non-negative, got {num_items}"
            )
        initial = TransactionDatabase(
            transactions, num_items=int(num_items), item_labels=item_labels
        )
        self._num_items = initial.num_items
        self._item_labels = initial.item_labels
        #: ``_boundaries[v]`` is the transaction count at version ``v``.
        self._boundaries: List[int] = [len(initial)]
        self._latest: TransactionDatabase = initial

    @classmethod
    def from_database(
        cls, database: TransactionDatabase
    ) -> "TransactionLog":
        """A log whose version ``0`` *is* ``database``."""
        log = cls.__new__(cls)
        log._num_items = database.num_items
        log._item_labels = database.item_labels
        log._boundaries = [len(database)]
        log._latest = database
        return log

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """The current (latest) version number; starts at ``0``."""
        return len(self._boundaries) - 1

    @property
    def num_items(self) -> int:
        """``|I|``, fixed at construction."""
        return self._num_items

    @property
    def num_transactions(self) -> int:
        """Total transactions at the latest version."""
        return self._boundaries[-1]

    @property
    def item_labels(self) -> Optional[Sequence[str]]:
        """External item names, if any were supplied."""
        return self._item_labels

    def num_transactions_at(self, version: int) -> int:
        """Transaction count at ``version``."""
        return self._boundaries[self._check_version(version)]

    def __len__(self) -> int:
        return self.num_transactions

    def __repr__(self) -> str:
        return (
            f"TransactionLog(version={self.version}, "
            f"N={self.num_transactions}, |I|={self._num_items})"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def append(self, transactions) -> int:
        """Append a non-empty batch; returns the new version number.

        ``transactions`` is an iterable of transactions (each an
        iterable of item ids in ``[0, num_items)``) or a ready
        :class:`TransactionDatabase` over the same vocabulary.  The
        batch is validated before anything is committed, so a bad
        transaction never leaves the log half-appended.  Empty batches
        are rejected: every version must differ from its predecessor,
        or version numbers stop identifying data states.
        """
        delta = self._as_delta(transactions)
        if delta.num_transactions == 0:
            raise ValidationError(
                "cannot append an empty batch (versions must advance "
                "the data); skip the call instead"
            )
        self._latest = self._latest.extended(delta)
        self._boundaries.append(len(self._latest))
        return self.version

    def _as_delta(self, transactions) -> TransactionDatabase:
        """Coerce an append batch into a validated delta database."""
        if isinstance(transactions, TransactionDatabase):
            if transactions.num_items != self._num_items:
                raise ValidationError(
                    f"appended database has num_items="
                    f"{transactions.num_items}, log has {self._num_items}"
                )
            return transactions
        return TransactionDatabase(
            transactions, num_items=self._num_items
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _check_version(self, version: int) -> int:
        version = int(version)
        if not 0 <= version <= self.version:
            raise ValidationError(
                f"version {version} outside [0, {self.version}]"
            )
        return version

    def snapshot(self, version: Optional[int] = None) -> LogSnapshot:
        """An immutable snapshot of ``version`` (default: latest).

        The latest snapshot is maintained incrementally across appends
        (warm caches carried over) and is always served from that warm
        head; a historical version is a zero-copy slice of the head, so
        the log holds one copy of its rows however many versions are
        read.
        """
        version = (
            self.version if version is None else self._check_version(version)
        )
        if version == self.version:
            return LogSnapshot(version=version, database=self._latest)
        return LogSnapshot(
            version=version,
            database=self._latest.slice(0, self._boundaries[version]),
        )

    def delta(
        self, since: int, until: Optional[int] = None
    ) -> TransactionDatabase:
        """The transactions appended in versions ``(since, until]``.

        This is what an incremental consumer feeds to
        ``CountingBackend.extend`` to advance from the snapshot at
        ``since`` to the one at ``until`` (default: latest) without a
        cold rebuild.
        """
        since = self._check_version(since)
        until = (
            self.version if until is None else self._check_version(until)
        )
        if until < since:
            raise ValidationError(
                f"delta until={until} precedes since={since}"
            )
        return self._latest.slice(
            self._boundaries[since], self._boundaries[until]
        )
