"""Crash-tolerant write-ahead log: CRC-framed JSONL with batched fsync.

The durability primitive every store in :mod:`repro.store` builds on.
A :class:`WriteAheadLog` is an append-only file of JSON records, one
per line, each framed with a sequence number and a CRC-32 of its
canonical payload bytes::

    {"seq": 17, "crc": 2596996162, "payload": {...}}\\n

The framing buys exactly the property a write-ahead log needs: after a
crash (power loss, ``kill -9``, full disk) the tail of the file may
hold a partial or corrupted line, and :meth:`WriteAheadLog.replay`
recovers every record *up to* the first damaged one, reporting how
many trailing bytes it dropped.  A record that replays is a record
that was fully written; a record that does not was never acknowledged
durable, so dropping it is correct.

Durability contract
-------------------
``append`` writes and flushes the record into the OS page cache but
does **not** force it to disk; :meth:`sync` is the durability barrier
(``fsync``).  Callers that must not acknowledge an action before its
record is on disk — the ε-debit path — append first, do the work, and
call ``sync()`` immediately before releasing the result.  Because
``sync`` is a no-op when nothing was appended since the last barrier,
concurrent writers naturally share fsyncs (group commit): whichever
barrier runs first pays for every record buffered so far.

``fsync`` policies:

* ``"batch"`` (default) — the contract above: appends buffer, barriers
  pay one fsync for everything pending.
* ``"always"`` — every append fsyncs immediately (simplest reasoning,
  slowest; useful for tiny control files).

There is no policy without fsync: a barrier that did not reach the
disk could let a power loss under-count journaled ε.

Multi-process sharing
---------------------
A WAL file can be shared by several *processes* (the cluster mode of
:mod:`repro.service.cluster`): appends go through ``O_APPEND``
handles, so concurrent single-``write`` line appends never interleave.
The one unsafe combination is replay's torn-tail **truncation** racing
another process's append — pass a :class:`FileLock` as ``lock`` and
every append/replay/rewrite serializes on it, making recovery repair
safe while writers are live.  ``sync`` needs no lock (fsync mutates
nothing).
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import StateStoreError, ValidationError

try:  # POSIX only; cluster mode refuses to start without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "FileLock", "WriteAheadLog", "NullLog", "ReplayResult", "FSYNC_POLICIES",
]

#: The fsync policies :class:`WriteAheadLog` accepts.
FSYNC_POLICIES = ("batch", "always")


class FileLock:
    """An advisory cross-process mutex over one lock file (``flock``).

    The serialization primitive behind cluster-shared stores: every
    worker process (and every thread within one — each hold opens its
    own descriptor, and ``flock`` locks conflict across descriptors)
    that holds the lock excludes all others, on the same machine,
    for the duration of a :meth:`held` block::

        lock = FileLock(state_dir / "ledger.lock")
        with lock.held():
            ...  # read-check-append atomically across processes

    Not reentrant: acquiring while already held by the same thread
    deadlocks, so holders must never nest.  POSIX-only (``fcntl``);
    :meth:`held` raises :class:`~repro.errors.StateStoreError` on
    platforms without it rather than silently not locking.
    """

    def __init__(self, path) -> None:
        self._path = Path(path)

    @property
    def path(self) -> Path:
        """Where the lock file lives."""
        return self._path

    @contextlib.contextmanager
    def held(self) -> Iterator[None]:
        """Hold the exclusive lock for the duration of the block."""
        if fcntl is None:
            raise StateStoreError(
                "file locking needs fcntl (POSIX); shared state "
                "directories are not supported on this platform"
            )
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(str(self._path), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def __repr__(self) -> str:
        return f"FileLock({str(self._path)!r})"


class ReplayResult:
    """What :meth:`WriteAheadLog.replay` recovered from disk.

    ``records`` holds every intact payload in append order;
    ``torn_records`` counts damaged or partial trailing lines that
    were dropped (0 after a clean shutdown, usually 1 after a crash
    mid-append); ``next_seq`` is the sequence number the log will
    stamp on its next append.
    """

    def __init__(
        self, records: List[Dict[str, Any]], torn_records: int,
        next_seq: int,
    ) -> None:
        self.records = records
        self.torn_records = torn_records
        self.next_seq = next_seq

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return (
            f"ReplayResult(records={len(self.records)}, "
            f"torn={self.torn_records})"
        )


def _frame(seq: int, payload: Dict[str, Any]) -> bytes:
    """Serialize one framed record line (canonical payload + CRC)."""
    try:
        body = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as error:
        raise ValidationError(
            f"WAL payloads must be JSON-serializable: {error}"
        )
    crc = zlib.crc32(body.encode("utf-8"))
    return (
        f'{{"seq":{seq},"crc":{crc},"payload":{body}}}\n'.encode("utf-8")
    )


def _unframe(line: bytes) -> Optional[Tuple[int, Dict[str, Any]]]:
    """Parse one framed line; ``None`` if damaged or partial."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    seq, crc, payload = (
        record.get("seq"), record.get("crc"), record.get("payload")
    )
    if not isinstance(seq, int) or not isinstance(crc, int):
        return None
    if not isinstance(payload, dict):
        return None
    try:
        body = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError:
        return None  # NaN/Infinity: not a record _frame could write
    if zlib.crc32(body.encode("utf-8")) != crc:
        return None
    return seq, payload


class WriteAheadLog:
    """One append-only, CRC-framed record file (see module docstring).

    Parameters
    ----------
    path:
        The log file; parent directories are created on first append.
    fsync:
        One of :data:`FSYNC_POLICIES` — when appends become durable.
    lock:
        Optional :class:`FileLock` serializing appends and replay
        truncation against other *processes* sharing this file (see
        the module docstring); ``None`` (default) assumes a single
        writing process.
    """

    def __init__(
        self, path, fsync: str = "batch",
        lock: Optional[FileLock] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValidationError(
                f"fsync must be one of {list(FSYNC_POLICIES)}, "
                f"got {fsync!r}"
            )
        self._path = Path(path)
        self._fsync = fsync
        self._lock = lock
        self._handle = None
        self._next_seq = 0
        #: Durability watermark: appends are numbered by
        #: ``self.appends`` and ``_synced`` is the count known to be
        #: on disk.  A barrier snapshots the append count *before*
        #: fsyncing and only advances the watermark to that snapshot,
        #: so a concurrent append racing the fsync is never claimed
        #: covered — which is what makes running the barrier on
        #: another thread safe.
        self._synced = 0
        #: fsync calls actually issued (telemetry for the batching
        #: benchmark: batched barriers should show far fewer syncs
        #: than appends).
        self.syncs = 0
        #: records appended through this handle's lifetime.
        self.appends = 0

    @property
    def path(self) -> Path:
        """Where the log lives on disk."""
        return self._path

    @property
    def fsync_policy(self) -> str:
        """The configured fsync policy."""
        return self._fsync

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _guard(self):
        """The cross-process critical section (no-op when unshared)."""
        if self._lock is None:
            return contextlib.nullcontext()
        return self._lock.held()

    def _ensure_open(self) -> None:
        if self._handle is None:
            created = not self._path.exists()
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._path, "ab")
            if created:
                # The file's *directory entry* must survive power
                # loss too, or a crash could lose the whole log while
                # its records were dutifully fsynced.
                fsync_directory(self._path.parent)

    def append(self, payload: Dict[str, Any]) -> int:
        """Append one record; returns its sequence number.

        The record is flushed to the OS but durable only after the
        next :meth:`sync` barrier (policy ``"batch"``) or immediately
        (policy ``"always"``).
        """
        with self._guard():
            self._ensure_open()
            seq = self._next_seq
            self._handle.write(_frame(seq, payload))
            self._handle.flush()
            self._next_seq += 1
            self.appends += 1
            if self._fsync == "always":
                self._do_sync(self.appends)
        return seq

    def _do_sync(self, covered: int) -> None:
        os.fsync(self._handle.fileno())
        self.syncs += 1
        self._synced = max(self._synced, covered)

    def sync(self) -> None:
        """Durability barrier: every record appended *before this
        call* is on disk when it returns.

        A no-op when no such record is pending, so overlapping
        callers share fsyncs (group commit).  Safe to run from a
        worker thread while appends continue on another: the
        watermark only advances to the append count observed before
        the fsync, so a racing append is never claimed durable early.
        """
        if self._handle is None:
            return
        covered = self.appends
        if self._synced >= covered:
            return
        self._do_sync(covered)

    def close(self) -> None:
        """Flush, barrier, and close the file handle (reopened lazily)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def replay(self) -> ReplayResult:
        """Read every intact record back, dropping a torn tail.

        Records are returned in append order.  Parsing stops at the
        first damaged line: a crash can only damage the tail (appends
        are sequential), so anything *after* a bad line was never
        acknowledged and must not be trusted.  The damaged suffix is
        then **truncated off the file** — leaving it in place would
        strand every future append behind an unparsable line, silently
        losing acknowledged records on the restart after next.  Also
        primes this handle's next sequence number, so a log can be
        replayed and then appended to.
        """
        records: List[Dict[str, Any]] = []
        torn = 0
        next_seq = 0
        intact_bytes = 0
        with self._guard():
            if self._path.exists():
                with open(self._path, "rb") as handle:
                    lines = handle.read().split(b"\n")
                # A trailing newline yields one empty final chunk; a
                # torn final line yields a non-empty chunk that fails
                # to parse.
                if lines and lines[-1] == b"":
                    lines.pop()
                for line in lines:
                    parsed = _unframe(line)
                    if parsed is None:
                        torn = 1 + sum(
                            1 for _ in lines[len(records) + 1:]
                        )
                        break
                    seq, payload = parsed
                    records.append(payload)
                    next_seq = seq + 1
                    intact_bytes += len(line) + 1
                if torn:
                    self.close()
                    with open(self._path, "rb+") as handle:
                        handle.truncate(intact_bytes)
                        handle.flush()
                        os.fsync(handle.fileno())
            self._next_seq = next_seq
        return ReplayResult(records, torn, next_seq)

    def rewrite(self, payloads: Iterable[Dict[str, Any]]) -> int:
        """Atomically replace the log's contents (compaction).

        Writes the new records to a sibling temp file, fsyncs it, and
        renames it over the log — a crash mid-compaction leaves either
        the old log or the new one, never a mix.  Returns the number
        of records written.
        """
        with self._guard():
            self.close()
            self._path.parent.mkdir(parents=True, exist_ok=True)
            temp = self._path.with_suffix(
                self._path.suffix + ".compact"
            )
            count = 0
            with open(temp, "wb") as handle:
                for seq, payload in enumerate(payloads):
                    handle.write(_frame(seq, payload))
                    count += 1
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, self._path)
            fsync_directory(self._path.parent)
            self._next_seq = count
        return count

    def size_bytes(self) -> int:
        """Current on-disk size (0 when the file does not exist)."""
        try:
            return self._path.stat().st_size
        except FileNotFoundError:
            return 0

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self._path)!r}, fsync={self._fsync!r}, "
            f"next_seq={self._next_seq})"
        )


class NullLog:
    """A log with nowhere to write: the in-memory store's WAL.

    Same surface as :class:`WriteAheadLog` for the stores built over
    it.  Appends are dropped, barriers and ``close`` are no-ops, and
    a replay recovers nothing, so a store over a ``NullLog`` keeps
    only its in-memory state and touches no file.
    """

    syncs = 0

    def append(self, payload: Dict[str, Any]) -> int:
        return 0

    def sync(self) -> None:
        """No-op: nothing is ever pending, and there is no handle."""

    close = sync

    def replay(self) -> ReplayResult:
        return ReplayResult([], 0, 0)

    def size_bytes(self) -> int:
        return 0


def open_log(directory, name: str, fsync: str = "batch", lock=None):
    """The WAL ``directory/name``, or a :class:`NullLog` when
    ``directory`` is ``None`` (an in-memory store)."""
    if directory is None:
        return NullLog()
    return WriteAheadLog(Path(directory) / name, fsync=fsync, lock=lock)


def fsync_directory(directory) -> None:
    """fsync a directory so renames/creations inside it survive
    power loss.

    ``os.replace`` orders the data against the rename on most
    filesystems, but the rename itself is directory metadata — on a
    filesystem without ordered metadata journaling it can be lost (or
    reordered against a sibling rename) unless the directory entry is
    flushed too.  Platforms that cannot fsync a directory (Windows)
    skip silently: this is hardening, not a correctness dependency of
    replay.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except (OSError, AttributeError):
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def require_directory(root) -> Path:
    """Validate ``root`` as a state directory path and create it.

    Refuses a path that exists but is not a directory — silently
    treating a regular file as a state root would shadow (and on
    compaction destroy) whatever the operator pointed at.
    """
    path = Path(root)
    if path.exists() and not path.is_dir():
        raise StateStoreError(
            f"state path {str(path)!r} exists and is not a directory"
        )
    path.mkdir(parents=True, exist_ok=True)
    return path
