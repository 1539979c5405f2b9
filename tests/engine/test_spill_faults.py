"""Fault-injection tests for the mmap spill path.

The out-of-core plane's crash story: segment files are published
atomically (tmp → fsync → rename), so a crash can strand orphans but
never publish a torn live segment.  Damage that happens *after*
publish (truncation by a dying disk, torn bytes, a foreign format
version) is caught when the segment is attached — a header and exact
size check — and raised as a :class:`~repro.errors.TornSegmentError`
naming the segment; in-place bit flips need the full-payload CRC of
:func:`~repro.engine.mmap.verify_segment`.  ``ENOSPC`` during a spill
surfaces as a typed :class:`~repro.errors.StateStoreError` with the
store still consistent and the append retryable.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import ShardedBackend
from repro.engine import mmap as mmap_plane
from repro.engine.mmap import MmapShardStore, verify_segment
from repro.errors import (
    StateStoreError,
    TornSegmentError,
    error_to_wire,
)


def random_rows(seed: int, count: int = 40, num_items: int = 12):
    rng = np.random.default_rng(seed)
    return [
        np.unique(rng.integers(0, num_items, size=rng.integers(1, 6)))
        for _ in range(count)
    ]


def build_store(directory, seed=0, rows_per_segment=10,
                num_items=12):
    rows = random_rows(seed, num_items=num_items)
    store = MmapShardStore.create(
        directory, num_items=num_items,
        rows_per_segment=rows_per_segment,
    )
    store.append(TransactionDatabase.from_sorted_rows(rows, num_items))
    store.flush()
    return store, rows


def segment_files(directory):
    return sorted(directory.glob("seg-*.seg"))


def shard_rows(store):
    return [
        row.tolist()
        for index in range(store.num_segments)
        for row in store.shard_database(index).rows
    ]


# ----------------------------------------------------------------------
# ENOSPC during spill
# ----------------------------------------------------------------------
class TestNoSpace:
    def test_enospc_is_typed_and_store_stays_consistent(
        self, tmp_path, monkeypatch
    ):
        directory = tmp_path / "shards"
        store, rows = build_store(directory, rows_per_segment=10)
        segments_before = store.num_segments
        reference = [row.tolist() for row in rows]

        real_fsync = os.fsync

        def full_disk(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(mmap_plane.os, "fsync", full_disk)
        extra = random_rows(99, count=25)
        with pytest.raises(StateStoreError) as excinfo:
            store.append(TransactionDatabase.from_sorted_rows(extra, 12))
        assert "ENOSPC" in str(excinfo.value)

        # The failed publish left no torn segment and no orphan temp
        # file, and the already-published shards still answer.
        monkeypatch.setattr(mmap_plane.os, "fsync", real_fsync)
        assert not list(directory.glob("*.tmp"))
        assert store.num_segments == segments_before
        served = shard_rows(store)
        assert served == reference[: len(served)]

        # Space freed: the failed rows are still pending (never lost,
        # never double-appended) — flush() drains them.
        store.flush()
        assert store.num_rows == len(rows) + len(extra)
        assert shard_rows(store) == reference + [
            row.tolist() for row in extra
        ]
        store.close()


# ----------------------------------------------------------------------
# Torn segments: detected at attach (size), or by the CRC pass
# ----------------------------------------------------------------------
def assert_torn_at_attach(store, index):
    with pytest.raises(TornSegmentError) as excinfo:
        store.shard_database(index)
    assert excinfo.value.segments == (index,)
    return excinfo.value


class TestTornSegments:
    def test_truncation_detected_at_attach(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        victim = segment_files(directory)[1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) - 16])  # torn tail

        error = assert_torn_at_attach(store, 1)
        assert str(directory) in error.directory
        wire = error_to_wire(error)
        assert wire["error"] == "torn_segment"
        assert wire["segments"] == [1]
        # The healthy shards still attach.
        store.shard_database(0)
        store.close()

    def test_bitflip_needs_crc_verification(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        victim = segment_files(directory)[0]
        data = bytearray(victim.read_bytes())
        data[-5] ^= 0xFF  # same size, corrupt payload
        victim.write_bytes(bytes(data))

        # Size check cannot see it; CRC must.
        spec = store.segment_specs[0]
        assert verify_segment(spec) is None
        assert "crc" in verify_segment(spec, check_crc=True)
        store.close()

    def test_each_torn_segment_is_named_at_attach(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory, rows_per_segment=8)
        victims = segment_files(directory)[1:3]
        for victim in victims:
            victim.write_bytes(victim.read_bytes()[:-8])
        assert_torn_at_attach(store, 1)
        assert_torn_at_attach(store, 2)
        with ShardedBackend(store) as backend:
            with pytest.raises(TornSegmentError):
                backend.item_supports()

    def test_missing_segment_is_torn_at_attach(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        segment_files(directory)[3].unlink()
        error = assert_torn_at_attach(store, 3)
        assert "unreadable header" in str(error)
        store.close()

    def test_orphan_tmp_from_a_crash_is_harmless(self, tmp_path):
        """A kill mid-``write_segment`` strands ``*.tmp`` — no spec
        names it, so reads ignore it, and the next build in the
        directory sweeps it."""
        directory = tmp_path / "shards"
        store, rows = build_store(directory)
        orphan = directory / "seg-000099.seg.tmp"
        orphan.write_bytes(b"half-written garbage")
        assert shard_rows(store) == [row.tolist() for row in rows]
        store.close()
        MmapShardStore.create(directory, num_items=12).close()
        assert not orphan.exists()

    def test_truncation_inside_the_index_is_detected_at_attach(
        self, tmp_path
    ):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        spec = store.segment_specs[2]
        # Cut the file a few words into the tid-list index region:
        # header, row offsets and items stay whole.
        rows_end = 64 + 8 * (spec.num_rows + 1 + spec.total_size)
        victim = segment_files(directory)[2]
        victim.write_bytes(victim.read_bytes()[: rows_end + 8 * 3])
        assert_torn_at_attach(store, 2)
        store.close()

    def test_flipped_tid_byte_needs_crc_verification(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        spec = store.segment_specs[0]
        # The first tid: past the rows CSR and the index offsets.
        first_tid = 64 + 8 * (
            spec.num_rows + 1 + spec.total_size + spec.num_items + 1
        )
        victim = segment_files(directory)[0]
        data = bytearray(victim.read_bytes())
        data[first_tid] ^= 0x01
        victim.write_bytes(bytes(data))

        assert verify_segment(spec) is None
        assert "crc" in verify_segment(spec, check_crc=True)
        store.close()

    def test_version_1_segment_is_refused_not_counted(self, tmp_path):
        """A rows-only v1 file fails the attach with a typed error, so
        a query over it raises instead of counting."""
        import struct

        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        spec = store.segment_specs[1]
        victim = segment_files(directory)[1]
        data = bytearray(victim.read_bytes())
        data[8:16] = struct.pack("<q", 1)  # format version field
        v1_bytes = 64 + 8 * (spec.num_rows + 1 + spec.total_size)
        victim.write_bytes(bytes(data[:v1_bytes]))

        error = assert_torn_at_attach(store, 1)
        assert "version 1" in str(error)
        with ShardedBackend(store) as backend:
            with pytest.raises(TornSegmentError):
                backend.item_supports()

    def test_extend_writes_the_index(self, tmp_path):
        """Tail rewrites publish full v2 segments: their CRC covers the
        index, and the attached index is the one a fresh build
        computes."""
        directory = tmp_path / "shards"
        store, rows = build_store(directory, rows_per_segment=15)
        extra = random_rows(7, count=12)
        store.extend(TransactionDatabase(extra, num_items=12))
        everything = rows + extra
        for index, spec in enumerate(store.segment_specs):
            assert verify_segment(spec, check_crc=True) is None
            start = index * 15
            fresh = TransactionDatabase(
                everything[start:start + spec.num_rows], num_items=12
            )
            attached = store.shard_database(index)
            for part, want in zip(attached.index, fresh.index):
                np.testing.assert_array_equal(part, want)
        assert store.num_rows == len(everything)
        assert len(segment_files(directory)) == store.num_segments
        store.close()

    def test_extend_keeps_old_tail_for_held_mappings(self, tmp_path):
        """The tail is rewritten under its own name by rename, so a
        reader still holding the old mapping keeps the old rows."""
        directory = tmp_path / "shards"
        store, rows = build_store(directory, rows_per_segment=15)
        last = store.num_segments - 1
        held = store.shard_database(last)
        before = [row.tolist() for row in held.rows]
        store.extend(TransactionDatabase(random_rows(3, count=4), 12))
        assert [row.tolist() for row in held.rows] == before
        assert store.shard_database(last).num_transactions == (
            len(before) + 4
        )
        store.close()
