"""Memory-mapped shard segments: the out-of-core counting plane.

This module is the shard source of
:class:`~repro.engine.sharded.ShardedBackend`: each shard's CSR arrays
live in one **segment file** under the state dir, and queries open
them through ``np.memmap`` — the OS page cache decides which pages are
resident, so a dataset far larger than RAM can be counted with a
bounded working set.

Segment file layout, format version 2 (all little-endian int64 after
the header)::

    [ header: 64 bytes ]
    [ row offsets:   num_rows + 1  ]   transaction i is
    [ items:         total_size    ]   items[offsets[i]:offsets[i+1]]
    [ index offsets: num_items + 1 ]   item j's tid-list is
    [ tids:          total_size    ]   tids[index[j]:index[j+1]]

— the :class:`~repro.datasets.transactions.TransactionDatabase` CSR
layout, so a file is about twice its row CSR.  The index is computed
once, at write time: attaching is a header check plus an ``mmap``, with
no per-row objects and no index rebuild.  The header carries a magic,
the version, the shape, and a CRC32 of the whole payload.  Version-1
files (rows only) fail the header check — they are never counted.

A store is per-process scratch: the service spills each session
build into a fresh directory and removes it at ``stop()``, so nothing
ever reopens one.  Every write goes ``<file>.tmp`` → ``fsync`` →
``rename``, so a crash mid-spill can strand a ``.tmp`` orphan but
never publish a half-written segment under a live name.  Damage that
*does* happen to a published file (disk faults, manual truncation) is
caught when the segment is attached, by the header/size check, and
reported as a :class:`~repro.errors.TornSegmentError` naming the
segment; :func:`verify_segment` with ``check_crc=True`` re-hashes a
payload to catch in-place corruption too.

The store is built **chunk by chunk** by :meth:`MmapShardStore.build`,
the one spill loop: it takes any stream of CSR
:class:`~repro.datasets.transactions.TransactionDatabase` chunks — a
:func:`~repro.datasets.chunked.iter_transaction_chunks` file stream,
or the service's segment-sized slices of a loaded dataset — and at no
point holds more than one segment's rows plus one chunk in memory.
Reading back, :meth:`shard_database` returns shard databases
that are zero-copy views into the mapping, kept in an LRU cache
sized from ``memory_budget_bytes`` — evicting an entry drops the
mapping, and with it the resident pages.

A segment is attached by *path* via :func:`attach_file_segment`,
which maps the file and carves it into a database of views with
:func:`attach_words`.
"""

from __future__ import annotations

import errno
import os
import struct
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import (
    StateStoreError,
    TornSegmentError,
    ValidationError,
)

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "FileSegmentSpec",
    "MmapShardStore",
    "attach_file_segment",
    "attach_words",
    "process_resident_bytes",
    "segment_arrays",
    "segment_words",
    "write_segment",
]

PathLike = Union[str, Path]

_WORD = 8  # int64 bytes
_MAGIC = b"PBSHRD01"
_HEADER_SIZE = 64
_HEADER_FORMAT = "<8sqqqqq"  # magic, version, rows, size, items, crc
_FORMAT_VERSION = 2

#: Default rows per segment (one segment is one shard) — large enough
#: that the per-shard numpy kernels amortize Python dispatch, small
#: enough that a pool thread's scratch stays in cache-friendly territory.
DEFAULT_SHARD_SIZE = 65_536

#: Default per-store memory budget when none is configured: enough to
#: keep a handful of default-sized segments warm.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024


def process_resident_bytes() -> Optional[int]:
    """This process's resident set size in bytes, or ``None``.

    Reads ``/proc/self/statm`` (Linux); other platforms report
    ``None`` rather than a guess.  This is what ``/healthz`` shows
    next to the spilled byte count: pages the OS currently keeps
    resident for us, mapped segments included.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGESIZE")
    except (OSError, IndexError, ValueError):
        return None


def segment_words(num_rows: int, total_size: int, num_items: int) -> int:
    """int64 words in a segment payload: rows CSR, then its index."""
    return (num_rows + 1) + total_size + (num_items + 1) + total_size


def segment_arrays(database: TransactionDatabase) -> Tuple[np.ndarray, ...]:
    """A shard's payload regions in segment order (row offsets, items,
    index offsets, tids); builds the index if it is not built yet."""
    return (database.offsets, database.items, *database.index)


def attach_words(
    words: np.ndarray, num_rows: int, total_size: int, num_items: int
) -> TransactionDatabase:
    """A segment payload's int64 words as a database of views.

    Raises :class:`~repro.errors.ValidationError` when the words do
    not have the declared shape.
    """
    expected = segment_words(num_rows, total_size, num_items)
    if words.size != expected:
        raise ValidationError(
            f"segment holds {words.size} words, shape needs {expected}"
        )
    offsets, items, index_offsets, tids = np.split(
        words, np.cumsum([num_rows + 1, total_size, num_items + 1])
    )
    return TransactionDatabase.from_csr(
        offsets, items, num_items, index=(index_offsets, tids)
    )


@dataclass(frozen=True)
class FileSegmentSpec:
    """Handle for one on-disk segment: its path and shape."""

    path: str
    num_rows: int
    total_size: int
    num_items: int

    @property
    def num_words(self) -> int:
        """int64 words in the payload (see :func:`segment_words`)."""
        return segment_words(self.num_rows, self.total_size, self.num_items)


def write_segment(
    path: PathLike, database: TransactionDatabase
) -> FileSegmentSpec:
    """Write ``database`` as one segment file, atomically; returns its
    spec.

    The payload — rows and their tid-list index — and its CRC are
    written out, the bytes are fsynced, and only then does the file
    appear under ``path``: a crash leaves at worst an orphaned
    ``path.tmp``, never a torn live segment.

    Raises :class:`~repro.errors.StateStoreError` on I/O failure
    (``ENOSPC`` included), with the temp file cleaned up and any
    previously published segment untouched.
    """
    path = Path(path)
    arrays = segment_arrays(database)
    crc = 0
    for array in arrays:
        crc = zlib.crc32(array, crc)
    header = struct.pack(
        _HEADER_FORMAT,
        _MAGIC,
        _FORMAT_VERSION,
        database.num_transactions,
        database.total_size,
        database.num_items,
        crc,
    ).ljust(_HEADER_SIZE, b"\0")
    temp_path = path.with_name(path.name + ".tmp")
    try:
        with open(temp_path, "wb") as handle:
            handle.write(header)
            for array in arrays:
                handle.write(array)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except OSError as exc:
        temp_path.unlink(missing_ok=True)
        reason = errno.errorcode.get(exc.errno, "I/O error")
        raise StateStoreError(
            f"cannot spill shard segment {path.name}: {reason}: {exc}"
        ) from exc
    return FileSegmentSpec(
        path=str(path),
        num_rows=database.num_transactions,
        total_size=database.total_size,
        num_items=database.num_items,
    )


def _read_header(path: Path) -> Tuple[int, int, int, int]:
    """``(num_rows, total_size, num_items, crc)`` or raise ValueError."""
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER_SIZE)
    if len(raw) < _HEADER_SIZE:
        raise ValueError("short header")
    magic, version, num_rows, total_size, num_items, crc = struct.unpack(
        _HEADER_FORMAT, raw[: struct.calcsize(_HEADER_FORMAT)]
    )
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported segment version {version} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    return int(num_rows), int(total_size), int(num_items), int(crc)


def verify_segment(
    spec: FileSegmentSpec, check_crc: bool = False
) -> Optional[str]:
    """``None`` if the file matches its spec, else what is wrong.

    The default check is cheap (header fields + exact file size —
    catches truncation anywhere, index region included, the
    crash-window damage).  ``check_crc=True`` reads the whole payload,
    catching in-place corruption too.
    """
    path = Path(spec.path)
    try:
        num_rows, total_size, num_items, crc = _read_header(path)
    except (OSError, ValueError) as exc:
        return f"unreadable header: {exc}"
    shape = (spec.num_rows, spec.total_size, spec.num_items)
    if (num_rows, total_size, num_items) != shape:
        return (
            f"header shape ({num_rows} rows, {total_size} items, "
            f"{num_items} vocabulary) disagrees with spec {shape}"
        )
    expected_bytes = _HEADER_SIZE + spec.num_words * _WORD
    actual_bytes = path.stat().st_size
    if actual_bytes != expected_bytes:
        return f"file is {actual_bytes} bytes, expected {expected_bytes}"
    if check_crc:
        with open(path, "rb") as handle:
            handle.seek(_HEADER_SIZE)
            actual_crc = 0
            for block in iter(lambda: handle.read(1 << 20), b""):
                actual_crc = zlib.crc32(block, actual_crc)
        if actual_crc != crc:
            return (
                f"payload crc {actual_crc:#010x} != header {crc:#010x}"
            )
    return None


def attach_file_segment(
    spec: FileSegmentSpec,
) -> Tuple[np.memmap, TransactionDatabase]:
    """Map a segment read-only and view it as its shard database.

    Returns ``(memmap, database)``; the database's arrays (rows and
    tid-list index) are views into the mapping, which stays mapped for
    as long as either is referenced — dropping both unmaps the file
    and gives the pages back.  Validates the header/size first, then
    the offsets' end points — nothing counts over a torn file.
    """
    problem = verify_segment(spec)
    if problem is None:
        mapping = np.memmap(
            spec.path,
            dtype=np.int64,
            mode="r",
            offset=_HEADER_SIZE,
            shape=(spec.num_words,),
        )
        try:
            return mapping, attach_words(
                mapping, spec.num_rows, spec.total_size, spec.num_items
            )
        except ValidationError as exc:
            problem = str(exc)
    raise TornSegmentError(
        Path(spec.path).parent, [_index_of(Path(spec.path).name)], problem
    )


def _segment_file_name(index: int) -> str:
    return f"seg-{index:06d}.seg"


def _index_of(file_name: str) -> int:
    try:
        return int(Path(file_name).stem.split("-")[1])
    except (IndexError, ValueError):
        return -1


class MmapShardStore:
    """A directory of spilled shard segments, one file per shard.

    Build fresh with :meth:`create` / :meth:`build` (streaming, chunk
    by chunk); the segment shapes live in memory, so a store lives as
    long as the process that built it.  Thread-safe: the shard cache
    takes a lock, so the sharded backend's pool threads can pull shard
    databases concurrently.

    Layout under ``directory`` (conventionally
    ``<state-dir>/shards/<dataset>/<pid>-<token>/``)::

        seg-000000.seg
        seg-000001.seg
        ...
    """

    def __init__(
        self,
        directory: PathLike,
        num_items: int,
        rows_per_segment: int,
        memory_budget_bytes: Optional[int],
    ) -> None:
        self._directory = Path(directory)
        self._num_items = int(num_items)
        self._rows_per_segment = int(rows_per_segment)
        self._budget = int(
            memory_budget_bytes
            if memory_budget_bytes is not None
            else DEFAULT_MEMORY_BUDGET_BYTES
        )
        if self._budget < 1:
            raise ValidationError(
                f"memory_budget_bytes must be >= 1, got {self._budget}"
            )
        self._specs: List[FileSegmentSpec] = []
        self._pending = TransactionDatabase.concatenate([], self._num_items)
        self._lock = threading.Lock()
        self._cache: "OrderedDict[int, Tuple[np.memmap, TransactionDatabase]]"
        self._cache = OrderedDict()
        self._closed = False

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        num_items: int,
        rows_per_segment: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> "MmapShardStore":
        """Start a fresh, empty store under ``directory``.

        Any stale segments from a previous build in the same
        directory are removed first — a store directory belongs to
        exactly one build at a time.
        """
        if num_items < 1:
            raise ValidationError(
                f"num_items must be >= 1, got {num_items}"
            )
        if rows_per_segment is None:
            rows_per_segment = DEFAULT_SHARD_SIZE
        rows_per_segment = int(rows_per_segment)
        if rows_per_segment < 1:
            raise ValidationError(
                f"rows_per_segment must be >= 1, got {rows_per_segment}"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for stale in directory.glob("seg-*.seg*"):
            stale.unlink(missing_ok=True)
        return cls(directory, num_items, rows_per_segment, memory_budget_bytes)

    @classmethod
    def build(
        cls,
        directory: PathLike,
        chunks: Iterable[TransactionDatabase],
        num_items: int,
        rows_per_segment: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ) -> "MmapShardStore":
        """Spill a stream of CSR chunks into a fresh store.

        The one spill loop: ``chunks`` yields databases over at most
        ``num_items`` items — :func:`~repro.datasets.chunked
        .iter_transaction_chunks` from a file, or slices of a loaded
        database — and each is appended as it arrives, so peak memory
        during the build is one segment's rows plus one chunk.  If the
        stream (or a publish) raises, the store is closed before the
        error propagates.
        """
        store = cls.create(
            directory,
            num_items,
            rows_per_segment=rows_per_segment,
            memory_budget_bytes=memory_budget_bytes,
        )
        try:
            for chunk in chunks:
                store.append(chunk)
            store.flush()
        except BaseException:
            store.close()
            raise
        return store

    # -- shape ----------------------------------------------------------
    @property
    def directory(self) -> Path:
        """The store's on-disk root."""
        return self._directory

    @property
    def num_items(self) -> int:
        """Vocabulary size shared by every segment."""
        return self._num_items

    @property
    def rows_per_segment(self) -> int:
        """Target rows per segment (the shard size)."""
        return self._rows_per_segment

    @property
    def num_segments(self) -> int:
        """Published segments (pending unflushed rows not counted)."""
        return len(self._specs)

    @property
    def num_rows(self) -> int:
        """Total spilled transactions."""
        return sum(spec.num_rows for spec in self._specs)

    @property
    def total_size(self) -> int:
        """Total spilled items (sum of transaction lengths)."""
        return sum(spec.total_size for spec in self._specs)

    @property
    def segment_specs(self) -> List[FileSegmentSpec]:
        """Current segment specs, in shard order."""
        return list(self._specs)

    @property
    def memory_budget_bytes(self) -> int:
        """The configured residency budget for cached shards."""
        return self._budget

    # -- writing --------------------------------------------------------
    def append(self, database: TransactionDatabase) -> None:
        """Buffer ``database``'s transactions; publish full segments.

        Ids are range-checked against the store's vocabulary (one
        vectorized ``max``).
        """
        self._ensure_open()
        if database.total_size:
            largest = int(database.items.max())
            if largest >= self._num_items:
                raise ValidationError(
                    f"item {largest} out of range for "
                    f"num_items={self._num_items}"
                )
        self._pending = TransactionDatabase.concatenate(
            [self._pending, database], self._num_items
        )
        self._drain(everything=False)

    def flush(self) -> None:
        """Publish any buffered rows.

        Also the retry path after a failed publish (e.g. ``ENOSPC``):
        rows that could not be spilled stay in the pending buffer —
        never lost, never double-appended — and are drained here at
        segment granularity once the fault clears.
        """
        self._ensure_open()
        self._drain(everything=True)

    def _drain(self, everything: bool) -> None:
        """Publish full segments from the pending buffer (and, with
        ``everything``, the partial rest)."""
        size = self._rows_per_segment
        pending = self._pending.num_transactions
        while pending >= size or (everything and pending):
            self._publish(self._pending.slice(0, size))
            self._pending = self._pending.slice(size, pending)
            pending = self._pending.num_transactions

    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` to the spilled data.

        A partial tail segment is rewritten under its own name
        (attached, extended with its index merged, republished through
        :func:`write_segment`'s tmp → fsync → rename — readers still
        holding the old mapping keep the old inode); full segments are
        never touched.  This is the
        :meth:`~repro.engine.backend.CountingBackend.extend` spill
        path: ingest appends, it does not respill.
        """
        self._ensure_open()
        if not delta.num_transactions:
            return
        if (
            self._specs
            and self._specs[-1].num_rows < self._rows_per_segment
        ):
            last = len(self._specs) - 1
            take = self._rows_per_segment - self._specs[last].num_rows
            _, tail = attach_file_segment(self._specs[last])
            self._drop_cached(last)
            self._specs[last] = write_segment(
                self._specs[last].path, tail.extended(delta.slice(0, take))
            )
            delta = delta.slice(take, delta.num_transactions)
        self.append(delta)
        self.flush()

    def _publish(self, database: TransactionDatabase) -> None:
        name = _segment_file_name(len(self._specs))
        self._specs.append(write_segment(self._directory / name, database))

    # -- reading --------------------------------------------------------
    def shard_database(self, index: int) -> TransactionDatabase:
        """Shard ``index`` as a database of memmap views (LRU-cached).

        The cache holds at most ``memory_budget_bytes`` of mapped
        segment files; evicted entries drop their mapping, and the OS
        reclaims the pages.  Always keeps at least one entry, or
        nothing would ever be answerable.
        """
        self._ensure_open()
        if not 0 <= index < len(self._specs):
            raise ValidationError(
                f"shard index {index} out of range "
                f"(store has {len(self._specs)})"
            )
        with self._lock:
            entry = self._cache.get(index)
            if entry is not None:
                self._cache.move_to_end(index)
                return entry[1]
        mapping, database = attach_file_segment(self._specs[index])
        with self._lock:
            self._cache[index] = (mapping, database)
            self._cache.move_to_end(index)
            while (
                len(self._cache) > 1
                and self._resident_estimate_locked() > self._budget
            ):
                self._cache.popitem(last=False)
        return database

    def database(self) -> TransactionDatabase:
        """The full dataset as one in-memory CSR database.

        Copies every segment's rows (not their index) into RAM, one
        ``np.concatenate`` per array; the out-of-core plane avoids it
        on hot paths — it exists for whole-database consumers like the
        session's result assembly.
        """
        self._ensure_open()
        return TransactionDatabase.concatenate(
            [self.shard_database(index) for index in range(len(self._specs))],
            self._num_items,
        )

    def _resident_estimate_locked(self) -> int:
        # The whole file is mapped: header, rows and their index.
        return sum(
            _HEADER_SIZE + self._specs[index].num_words * _WORD
            for index in self._cache
        )

    def resident_bytes(self) -> int:
        """Bytes of segment files currently mapped by cached shards."""
        with self._lock:
            return self._resident_estimate_locked()

    def spilled_bytes(self) -> int:
        """Total bytes of segment files on disk."""
        total = 0
        for spec in self._specs:
            try:
                total += Path(spec.path).stat().st_size
            except OSError:
                pass
        return total

    def stats(self) -> Dict[str, object]:
        """Telemetry block for ``/healthz``/``/metrics``."""
        return {
            "directory": str(self._directory),
            "segments": self.num_segments,
            "rows": self.num_rows,
            "spilled_bytes": self.spilled_bytes(),
            "resident_shard_bytes": self.resident_bytes(),
            "memory_budget_bytes": self._budget,
            "cached_shards": len(self._cache),
        }

    # -- lifecycle ------------------------------------------------------
    def _drop_cached(self, index: int) -> None:
        with self._lock:
            self._cache.pop(index, None)

    def close(self) -> None:
        """Release mappings and mark the store closed (idempotent).

        Segment files stay on disk; the owner removes the directory
        (the service does so at shutdown).
        """
        with self._lock:
            self._cache.clear()
        self._closed = True

    def _ensure_open(self) -> None:
        if self._closed:
            raise StateStoreError(
                f"shard store under {self._directory} is closed"
            )

    def __enter__(self) -> "MmapShardStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"MmapShardStore({str(self._directory)!r}, "
            f"segments={self.num_segments}, rows={self.num_rows})"
        )
