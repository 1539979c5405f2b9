"""Shared-memory publication of transaction shards.

The process-parallel counting plane (:mod:`repro.engine.parallel`)
needs every worker to see the shard databases without pickling them:
at kosarak/AOL scale a shard is megabytes of row data, and shipping it
per query would erase the parallel win.  This module publishes each
shard **once** into a POSIX shared-memory block that workers attach to
zero-copy, and ships only a tiny picklable :class:`ShardSegmentSpec`
(name + shape metadata) per query.

Layout of one segment (a single ``multiprocessing.shared_memory``
block of int64 words) is the payload of an mmap segment file, without
the header (:func:`~repro.engine.mmap.segment_arrays`)::

    [ row offsets ] [ items ] [ index offsets ] [ tids ]

— the CSR layout of
:class:`~repro.datasets.transactions.TransactionDatabase`, rows then
their item-major tid-list index.  :func:`attach_segment` views the
block through :func:`~repro.engine.mmap.attach_words`, the attach path
the mmap plane uses too, so a worker's copy of a shard costs one
``mmap``: no allocation per row and no index rebuild.

Ownership: the publishing process (the backend) is the only one that
ever unlinks a segment; workers merely ``close()`` their attachments.
Spawned workers share the owner's resource-tracker process, so a
worker's attach is an idempotent re-registration of the entry the
owner created and the owner's ``unlink`` retires it exactly once
(``track=False`` short-circuits the re-registration on Python 3.13+).

:func:`shared_memory_available` is the capability probe behind the
graceful thread-mode fallback: platforms without ``/dev/shm`` (or
with it mounted unwritable) simply never enter process mode.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.engine.mmap import attach_words, segment_arrays, segment_words
from repro.errors import ValidationError

__all__ = [
    "ShardSegment",
    "ShardSegmentSpec",
    "attach_segment",
    "publish_all",
    "publish_shard",
    "shared_memory_available",
    "unlink_all",
]

_WORD = 8  # int64 bytes


def shared_memory_available() -> bool:
    """Can this platform create (and reopen) a shared-memory block?"""
    try:
        from multiprocessing import shared_memory

        block = shared_memory.SharedMemory(create=True, size=_WORD)
        try:
            block.close()
        finally:
            block.unlink()
        return True
    except Exception:
        return False


@dataclass(frozen=True)
class ShardSegmentSpec:
    """The picklable handle a query descriptor carries per shard.

    Everything a worker needs to attach: the OS-level block name plus
    the shape metadata that cannot be recovered from the block alone.
    """

    name: str
    num_rows: int
    total_size: int
    num_items: int

    @property
    def num_words(self) -> int:
        """int64 words in the block (see
        :func:`~repro.engine.mmap.segment_words`)."""
        return segment_words(self.num_rows, self.total_size, self.num_items)


class ShardSegment:
    """One published shard: the owning side of a shared block.

    Created via :func:`publish_shard`; the owner keeps the instance
    alive for as long as workers may attach, then calls
    :meth:`unlink` exactly once (idempotent) when the shard is
    replaced or the backend closes.
    """

    def __init__(self, block, spec: ShardSegmentSpec) -> None:
        self._block = block
        self.spec = spec
        self._unlinked = False

    def unlink(self) -> None:
        """Release the block (idempotent; attached workers keep their
        mappings alive until they close them)."""
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._block.close()
        finally:
            try:
                self._block.unlink()
            except FileNotFoundError:
                pass

    def __repr__(self) -> str:
        return (
            f"ShardSegment({self.spec.name!r}, rows={self.spec.num_rows}, "
            f"size={self.spec.total_size})"
        )


def publish_shard(shard: TransactionDatabase) -> ShardSegment:
    """Copy ``shard``'s rows and tid-list index into a fresh shared
    block, once.

    The one full copy in the process plane's lifetime: publication.
    Every later query attaches views instead of copying.
    """
    from multiprocessing import shared_memory

    arrays = segment_arrays(shard)
    spec = ShardSegmentSpec(
        name=f"repro_shard_{secrets.token_hex(8)}",
        num_rows=shard.num_transactions,
        total_size=shard.total_size,
        num_items=shard.num_items,
    )
    block = shared_memory.SharedMemory(
        create=True, size=spec.num_words * _WORD, name=spec.name
    )
    np.concatenate(
        arrays,
        out=np.ndarray(spec.num_words, dtype=np.int64, buffer=block.buf),
    )
    return ShardSegment(block, spec)


def attach_segment(spec: ShardSegmentSpec):
    """Worker-side attach: view the shard database zero-copy.

    Returns ``(shared_memory_block, database)``; the caller must keep
    the block referenced for as long as the database is used (its
    arrays are views into the block's buffer) and ``close()`` it when
    evicting.
    """
    from multiprocessing import shared_memory

    try:
        block = shared_memory.SharedMemory(name=spec.name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        # Attaching registers the name with the resource tracker.  Our
        # workers are spawned by the owner's executor, so they share
        # the owner's tracker process, whose cache is a *set*: the
        # worker's register is an idempotent re-add of the entry the
        # owner created, and the owner's eventual ``unlink`` removes
        # it exactly once.  No double-unlink — and no unregister here,
        # which would strip the shared entry out from under the owner.
        block = shared_memory.SharedMemory(name=spec.name)
    words = np.ndarray(block.size // _WORD, dtype=np.int64, buffer=block.buf)
    try:
        return block, attach_words(
            words[: spec.num_words],
            spec.num_rows, spec.total_size, spec.num_items,
        )
    except ValidationError as exc:
        block.close()
        raise ValidationError(f"segment {spec.name}: {exc}") from None


def publish_all(
    shards: List[TransactionDatabase],
) -> List[ShardSegment]:
    """Publish every shard; on failure unlink what was published."""
    segments: List[ShardSegment] = []
    try:
        for shard in shards:
            segments.append(publish_shard(shard))
    except Exception:
        for segment in segments:
            segment.unlink()
        raise
    return segments


def unlink_all(segments: Optional[List[ShardSegment]]) -> None:
    """Unlink every segment, ignoring already-gone blocks."""
    for segment in segments or ():
        segment.unlink()
