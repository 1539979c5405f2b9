"""Durable streaming ingestion: per-dataset append WALs + checkpoints.

A served dataset moves through versioned data states: the base
snapshot is version 0 and every ingested batch gets the next version.
Those versions are part of the *public* serving contract — every
release pins and reports the snapshot version it was computed on — so
a version must never name two data states: a restart comes back at
the **same** version with the **same** data, or released results stop
being attributable.  :class:`DatasetLogStore` is the one owner of the
numbering: :meth:`DatasetLogStore.record_append` assigns each batch
its version and the serving session serves the number it is handed.

:class:`DatasetLogStore` records exactly the information the loader
cannot reproduce: the appended deltas.  The base dataset always comes
from the dataset loader (it is either a registry dataset or the
operator's own file — re-persisting it would duplicate the source of
truth), and the store journals one WAL record per ingest batch::

    {"type": "append", "version": 3, "transactions": [[...], ...]}

The store holds **no row data in memory** — the warm session's
backend already owns a copy of everything ingested, and duplicating a
long feed here would double resident memory without bound.  Live
state is just the version watermark; :meth:`replay` (recovery) and
:meth:`compact` re-read the checkpoint + WAL from disk on demand.  In
memory the watermark is all there is: a session rebuilt without its
ingested rows serves the base data as version 0 again, and its next
batch still gets a version past the watermark — never one a lost data
state used.

Checkpoints fold the WAL into a single JSON file every
``checkpoint_interval`` appends, bounding replay cost for long feeds.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import StateStoreError, ValidationError
from repro.store.wal import WriteAheadLog, fsync_directory, open_log

__all__ = [
    "DatasetLogStore",
    "sanitize_dataset_name",
    "stored_dataset_name",
]

#: Subdirectory of the state root holding dataset logs.
LOGS_SUBDIR = "logs"

#: Default appends between automatic checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 64


def stored_dataset_name(directory, stem: str) -> Optional[str]:
    """Recover the original dataset name a log's files recorded.

    Sanitization is lossy, so the checkpoint and every WAL record
    carry the dataset's real name; an offline scan over a state
    directory reads it back here instead of guessing from the
    filename stem.  Returns ``None`` when the files predate the field
    or hold nothing readable (callers fall back to the stem).
    """
    logs_dir = Path(directory) / LOGS_SUBDIR
    checkpoint = logs_dir / f"{stem}.checkpoint.json"
    if checkpoint.exists():
        try:
            with open(checkpoint, "r", encoding="utf-8") as handle:
                name = json.load(handle).get("dataset")
            if isinstance(name, str) and name:
                return name
        except (OSError, json.JSONDecodeError):
            pass
    wal_path = logs_dir / f"{stem}.wal"
    if wal_path.exists():
        for record in WriteAheadLog(wal_path).replay():
            name = record.get("dataset")
            if isinstance(name, str) and name:
                return name
    return None


def sanitize_dataset_name(dataset: str) -> str:
    """Filesystem-safe filename stem for a dataset name.

    Dataset names come from operator config and may contain path
    separators or other hostile characters; everything outside
    ``[A-Za-z0-9._-]`` becomes ``_`` so a name can never escape the
    ``logs/`` directory.  The mapping is not injective — the
    :class:`~repro.store.state.StateStore` facade rejects two live
    datasets whose names collide on the same stem.
    """
    if not dataset:
        raise ValidationError("dataset name must be non-empty")
    return "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in dataset
    )


class DatasetLogStore:
    """Append-persistence for one dataset's ingest stream.

    Parameters
    ----------
    directory:
        The state root; this store owns
        ``logs/<dataset>.wal`` and ``logs/<dataset>.checkpoint.json``.
        ``None`` keeps only the version watermark: appends are
        numbered, nothing is written and nothing replays.
    dataset:
        The dataset name (sanitized for the filesystem).
    fsync:
        WAL fsync policy; an ingest calls :meth:`sync` before the
        service acknowledges the append.
    checkpoint_interval:
        Minimum appends between automatic WAL-into-checkpoint folds;
        a fold additionally waits until the WAL has grown to the
        checkpoint's size, keeping the rewrite cost amortized O(1)
        per row (see ``_should_checkpoint``).  ``None`` disables
        automatic checkpointing (``compact`` still works on demand).
    lock:
        Optional :class:`~repro.store.wal.FileLock` serializing WAL
        appends and replay against other worker processes sharing the
        state directory (cluster mode; dataset affinity keeps live
        appenders unique per dataset, the lock protects boot-time
        replay racing a failover owner's tail append).
    """

    def __init__(
        self,
        directory,
        dataset: str,
        fsync: str = "batch",
        checkpoint_interval: Optional[int] = DEFAULT_CHECKPOINT_INTERVAL,
        lock=None,
    ) -> None:
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValidationError(
                f"checkpoint_interval must be >= 1 or None, "
                f"got {checkpoint_interval}"
            )
        self.dataset = dataset
        stem = sanitize_dataset_name(dataset)
        self._wal = open_log(
            directory, f"{LOGS_SUBDIR}/{stem}.wal", fsync=fsync, lock=lock
        )
        self._checkpoint_path = self._checkpoint_interval = None
        if directory is not None:
            self._checkpoint_path = (
                Path(directory) / LOGS_SUBDIR / f"{stem}.checkpoint.json"
            )
            self._checkpoint_interval = checkpoint_interval
        self._version = 0
        self._wal_appends = 0
        self._torn_records = 0
        self._load()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _read_checkpoint(self) -> Tuple[int, List[List[int]]]:
        """``(version, rows)`` from the checkpoint file (0, [] if
        absent)."""
        path = self._checkpoint_path
        if path is None or not path.exists():
            return 0, []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                checkpoint = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise StateStoreError(
                f"unreadable dataset checkpoint {str(path)!r}: {error}"
            )
        return (
            int(checkpoint.get("version", 0)),
            [list(row) for row in checkpoint.get("transactions", [])],
        )

    def _scan(
        self, collect: bool
    ) -> Tuple[int, List[List[int]], int, int]:
        """One pass over checkpoint + WAL.

        Returns ``(version, rows, torn_records, wal_appends)``; the
        rows list stays empty unless ``collect`` (the load path only
        needs the watermark, recovery wants the data too).
        """
        version, rows = self._read_checkpoint()
        if not collect:
            rows = []
        replay = self._wal.replay()
        appends = 0
        for record in replay:
            if record.get("type") != "append":
                continue
            record_version = int(record["version"])
            if record_version <= version and appends == 0:
                # A WAL record the checkpoint already folded in (the
                # crash window of compact()); replaying it would
                # double-append.
                continue
            if record_version != version + 1:
                raise StateStoreError(
                    f"dataset log for {self.dataset!r} jumps from "
                    f"version {version} to {record_version}; the "
                    f"store is inconsistent"
                )
            version = record_version
            appends += 1
            if collect:
                rows.extend(
                    [list(row) for row in record["transactions"]]
                )
        return version, rows, replay.torn_records, appends

    def _load(self) -> None:
        self._version, _, self._torn_records, self._wal_appends = (
            self._scan(collect=False)
        )

    @property
    def version(self) -> int:
        """The latest recoverable snapshot version (0 = base only)."""
        return self._version

    @property
    def torn_records(self) -> int:
        """Damaged trailing WAL records dropped during recovery."""
        return self._torn_records

    def replay(self) -> Tuple[int, List[List[int]]]:
        """The recovery payload: ``(version, flattened rows)``.

        ``rows`` is every appended transaction since the base
        snapshot, in ingest order, re-read from disk; the caller
        ingests them as one batch served at ``version`` (the per-batch
        boundaries carry no serving semantics beyond the final
        version number).
        """
        version, rows, _, _ = self._scan(collect=True)
        return version, rows

    # ------------------------------------------------------------------
    # Live appends
    # ------------------------------------------------------------------
    def record_append(self, transactions: List[List[int]]) -> int:
        """Journal one ingested batch; returns the version it made.

        The version is the watermark + 1, so no number is handed out
        twice.  Write-ahead relative to both the serving session *and*
        the client acknowledgement: the service journals the
        validated batch, ingests it into the warm session at the
        returned version, then calls :meth:`sync` before answering.
        """
        if not transactions:
            raise ValidationError(
                "cannot record an empty append (versions must advance "
                "the data)"
            )
        rows = [[int(item) for item in row] for row in transactions]
        version = self._version + 1
        self._wal.append(
            {
                "type": "append",
                "dataset": self.dataset,
                "version": version,
                "transactions": rows,
            }
        )
        self._version = version
        self._wal_appends += 1
        if self._should_checkpoint():
            self.compact()
        return version

    def _should_checkpoint(self) -> bool:
        """Amortized auto-checkpoint trigger.

        A fold rewrites the *entire* appended history, so folding on
        a fixed append count alone would cost O(N²) disk work over a
        long feed.  Requiring the WAL to have grown to at least the
        checkpoint's size makes folds geometric in the history size —
        amortized O(1) per appended row — while the append-count
        floor still keeps short feeds' restart replays cheap.
        """
        if self._checkpoint_interval is None:
            return False
        if self._wal_appends < self._checkpoint_interval:
            return False
        try:
            checkpoint_bytes = self._checkpoint_path.stat().st_size
        except FileNotFoundError:
            checkpoint_bytes = 0
        return self._wal.size_bytes() >= checkpoint_bytes

    def sync(self) -> None:
        """Durability barrier — call before acknowledging an ingest."""
        self._wal.sync()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, object]:
        """Fold the WAL into the checkpoint file; returns a summary.

        The checkpoint (flattened rows + final version) is written
        atomically *before* the WAL truncates; a crash in the window
        between the two leaves WAL records the next load recognizes
        as already folded (their versions are ≤ the checkpoint's) and
        skips.
        """
        wal_bytes_before = self._wal.size_bytes()
        version, rows = self.replay()
        self._checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        temp = self._checkpoint_path.with_suffix(".json.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "dataset": self.dataset,
                    "version": version,
                    "transactions": rows,
                },
                handle,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self._checkpoint_path)
        # Flush the rename before truncating the WAL: power loss must
        # never surface the empty WAL alongside the *old* checkpoint.
        fsync_directory(self._checkpoint_path.parent)
        self._wal.rewrite(())
        self._wal_appends = 0
        return {
            "dataset": self.dataset,
            "version": version,
            "rows": len(rows),
            "wal_bytes_before": wal_bytes_before,
            "wal_bytes_after": self._wal.size_bytes(),
        }

    def close(self) -> None:
        """Barrier and close the underlying WAL handle."""
        self._wal.close()

    def stats(self) -> Dict[str, object]:
        """JSON-serializable store telemetry (``store inspect``)."""
        version, rows = self.replay()
        return {
            "dataset": self.dataset,
            "version": version,
            "appended_rows": len(rows),
            "wal_bytes": self._wal.size_bytes(),
            "checkpointed": self._checkpoint_path.exists(),
            "torn_records": self._torn_records,
        }

    def __repr__(self) -> str:
        return (
            f"DatasetLogStore({self.dataset!r}, version={self._version})"
        )
