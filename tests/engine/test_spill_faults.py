"""Fault-injection tests for the mmap spill path.

The out-of-core plane's crash story: segment files are published
atomically (tmp → fsync → rename) and the manifest is written last,
so a crash can strand orphans but never publish a torn live segment;
damage that happens *after* publish (truncation by a dying disk, torn
bytes) is caught at reopen — cheap size verification by default,
full-payload CRC on demand — and repaired **per segment** with
:meth:`MmapShardStore.rebuild_segment`, leaving healthy shards'
files byte-identical.  ``ENOSPC`` during a spill surfaces as a typed
:class:`~repro.errors.StateStoreError` with the store still
consistent and the append retryable.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import BitmapBackend, ShardedBackend
from repro.engine import mmap as mmap_plane
from repro.engine.mmap import MmapShardStore
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
        served = [
            row.tolist()
            for index in range(store.num_segments)
            for row in store.shard_database(index).rows
        ]
        assert served == reference[: len(served)]

        # Space freed: the failed rows are still pending (never lost,
        # never double-appended) — flush() drains them.
        store.flush()
        assert store.num_rows == len(rows) + len(extra)
        reopened = MmapShardStore.open(directory, verify="crc")
        assert reopened.num_rows == len(rows) + len(extra)
        reopened.close()
        store.close()


# ----------------------------------------------------------------------
# Torn segments: detect (size vs crc), repair one shard only
# ----------------------------------------------------------------------
class TestTornSegments:
    def test_truncation_detected_at_open(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        store.close()
        victim = segment_files(directory)[1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) - 16])  # torn tail

        with pytest.raises(TornSegmentError) as excinfo:
            MmapShardStore.open(directory)
        assert excinfo.value.segments == (1,)
        assert str(directory) in excinfo.value.directory
        wire = error_to_wire(excinfo.value)
        assert wire["error"] == "torn_segment"
        assert wire["segments"] == [1]

    def test_bitflip_needs_crc_verification(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        store.close()
        victim = segment_files(directory)[0]
        data = bytearray(victim.read_bytes())
        data[-5] ^= 0xFF  # same size, corrupt payload
        victim.write_bytes(bytes(data))

        # Size check cannot see it; CRC must.
        MmapShardStore.open(directory, verify="size").close()
        with pytest.raises(TornSegmentError) as excinfo:
            MmapShardStore.open(directory, verify="crc")
        assert excinfo.value.segments == (0,)

    def test_open_reports_every_torn_segment_at_once(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory, rows_per_segment=8)
        store.close()
        victims = segment_files(directory)[1:3]
        for victim in victims:
            victim.write_bytes(victim.read_bytes()[:-8])
        with pytest.raises(TornSegmentError) as excinfo:
            MmapShardStore.open(directory)
        assert excinfo.value.segments == (1, 2)

    def test_rebuild_repairs_only_the_torn_shard(self, tmp_path):
        directory = tmp_path / "shards"
        store, rows = build_store(directory, rows_per_segment=10)
        store.close()

        files = segment_files(directory)
        healthy_bytes = {
            path.name: path.read_bytes()
            for path in files
            if path is not files[1]
        }
        files[1].write_bytes(files[1].read_bytes()[:-8])

        # Reopen without verification to reach the repair API, then
        # rebuild shard 1 from its source rows.
        store = MmapShardStore.open(directory, verify="none")
        store.rebuild_segment(1, rows[10:20])
        store.close()

        # Fully healthy again — CRC-clean, bit-identical counts…
        repaired = MmapShardStore.open(directory, verify="crc")
        with ShardedBackend(repaired) as backend:
            from repro.datasets.transactions import TransactionDatabase

            reference = BitmapBackend(
                TransactionDatabase(rows, num_items=12)
            )
            np.testing.assert_array_equal(
                backend.item_supports(), reference.item_supports()
            )
        # …and the healthy shards' files were never rewritten.
        for path in segment_files(directory):
            if path.name in healthy_bytes:
                assert path.read_bytes() == healthy_bytes[path.name]

    def test_rebuild_rejects_wrong_row_count(self, tmp_path):
        from repro.errors import ValidationError

        directory = tmp_path / "shards"
        store, rows = build_store(directory, rows_per_segment=10)
        with pytest.raises(ValidationError):
            store.rebuild_segment(0, rows[:3])
        store.close()

    def test_orphan_tmp_from_a_crash_is_harmless(self, tmp_path):
        """A kill mid-``write_segment`` strands ``*.tmp`` — the
        manifest never saw it, so reopen ignores it."""
        directory = tmp_path / "shards"
        store, rows = build_store(directory)
        store.close()
        (directory / "seg-000099-g0000.seg.tmp").write_bytes(
            b"half-written garbage"
        )
        reopened = MmapShardStore.open(directory, verify="crc")
        assert reopened.num_rows == len(rows)
        reopened.close()

    def test_truncation_inside_the_index_is_detected_at_open(
        self, tmp_path
    ):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        spec = store.segment_specs[2]
        store.close()
        # Cut the file a few words into the tid-list index region:
        # header, row offsets and items stay whole.
        rows_end = 64 + 8 * (spec.num_rows + 1 + spec.total_size)
        victim = segment_files(directory)[2]
        victim.write_bytes(victim.read_bytes()[: rows_end + 8 * 3])
        with pytest.raises(TornSegmentError) as excinfo:
            MmapShardStore.open(directory)
        assert excinfo.value.segments == (2,)

    def test_flipped_tid_byte_needs_crc_verification(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        spec = store.segment_specs[0]
        store.close()
        # The first tid: past the rows CSR and the index offsets.
        first_tid = 64 + 8 * (
            spec.num_rows + 1 + spec.total_size + spec.num_items + 1
        )
        victim = segment_files(directory)[0]
        data = bytearray(victim.read_bytes())
        data[first_tid] ^= 0x01
        victim.write_bytes(bytes(data))

        MmapShardStore.open(directory, verify="size").close()
        with pytest.raises(TornSegmentError) as excinfo:
            MmapShardStore.open(directory, verify="crc")
        assert excinfo.value.segments == (0,)

    def test_version_1_segment_is_refused_not_counted(self, tmp_path):
        """A rows-only v1 file fails every attach path with a typed
        error — at open, and at query time after ``verify="none"``."""
        import struct

        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        spec = store.segment_specs[1]
        store.close()
        victim = segment_files(directory)[1]
        data = bytearray(victim.read_bytes())
        data[8:16] = struct.pack("<q", 1)  # format version field
        v1_bytes = 64 + 8 * (spec.num_rows + 1 + spec.total_size)
        victim.write_bytes(bytes(data[:v1_bytes]))

        with pytest.raises(TornSegmentError) as excinfo:
            MmapShardStore.open(directory)
        assert excinfo.value.segments == (1,)
        assert "version 1" in str(excinfo.value)
        unverified = MmapShardStore.open(directory, verify="none")
        with ShardedBackend(unverified) as backend:
            with pytest.raises(TornSegmentError):
                backend.item_supports()

    def test_extend_and_rebuild_write_the_index(self, tmp_path):
        """Tail rewrites and repairs publish full v2 segments: their
        CRC covers the index, and the attached index is the one a
        fresh build computes."""
        from repro.datasets.transactions import TransactionDatabase

        directory = tmp_path / "shards"
        store, rows = build_store(directory, rows_per_segment=15)
        extra = random_rows(7, count=12)
        store.extend(TransactionDatabase(extra, num_items=12))
        store.rebuild_segment(0, rows[:15])
        store.close()
        reopened = MmapShardStore.open(directory, verify="crc")
        everything = rows + extra
        for index, spec in enumerate(reopened.segment_specs):
            start = index * 15
            fresh = TransactionDatabase(
                everything[start:start + spec.num_rows], num_items=12
            )
            attached = reopened.shard_database(index)
            for part, want in zip(attached.index, fresh.index):
                np.testing.assert_array_equal(part, want)
        assert reopened.num_rows == len(everything)
        reopened.close()

    def test_missing_manifest_is_state_store_error(self, tmp_path):
        directory = tmp_path / "shards"
        store, _ = build_store(directory)
        store.close()
        (directory / "manifest.json").unlink()
        with pytest.raises(StateStoreError):
            MmapShardStore.open(directory)
