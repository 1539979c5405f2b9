"""Unit tests for the CRC-framed write-ahead log primitive.

The WAL's whole job is to make exactly the records that were fully
written recoverable, drop anything torn by a crash, and amortize
fsyncs through the barrier.  These tests pin those properties file-
byte-level: torn tails are simulated by truncating and corrupting the
real on-disk bytes.
"""

from __future__ import annotations

import zlib

import pytest

from repro.errors import StateStoreError, ValidationError
from repro.store.wal import WriteAheadLog, require_directory


def reopened(path):
    """A fresh handle over the same file (simulated restart)."""
    return WriteAheadLog(path)


class TestAppendReplay:
    def test_round_trip_preserves_records_and_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal")
        payloads = [{"n": i, "tag": f"r{i}"} for i in range(20)]
        for payload in payloads:
            wal.append(payload)
        wal.close()

        replay = reopened(tmp_path / "a.wal").replay()
        assert list(replay) == payloads
        assert replay.torn_records == 0
        assert replay.next_seq == 20

    def test_replay_then_append_continues_the_sequence(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal")
        wal.append({"n": 0})
        wal.close()

        again = reopened(tmp_path / "a.wal")
        again.replay()
        again.append({"n": 1})
        again.close()

        replay = reopened(tmp_path / "a.wal").replay()
        assert [record["n"] for record in replay] == [0, 1]
        assert replay.next_seq == 2

    def test_missing_file_replays_empty(self, tmp_path):
        replay = WriteAheadLog(tmp_path / "missing.wal").replay()
        assert len(replay) == 0
        assert replay.torn_records == 0

    def test_non_serializable_payload_is_rejected(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal")
        with pytest.raises(ValidationError, match="JSON-serializable"):
            wal.append({"bad": object()})

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_json_float_is_rejected(self, tmp_path, value):
        wal = WriteAheadLog(tmp_path / "a.wal")
        with pytest.raises(ValidationError, match="JSON-serializable"):
            wal.append({"epsilon": value})
        wal.close()
        assert (tmp_path / "a.wal").read_bytes() == b""

    # "never" is refused too: a barrier without fsync could let a
    # power loss under-count journaled ε.
    @pytest.mark.parametrize("policy", ["sometimes", "never"])
    def test_unknown_fsync_policy_is_rejected(self, tmp_path, policy):
        with pytest.raises(ValidationError, match="fsync"):
            WriteAheadLog(tmp_path / "a.wal", fsync=policy)


class TestTornTails:
    """Crash damage only ever strips records off the end."""

    def _write(self, path, count=5):
        wal = WriteAheadLog(path)
        for index in range(count):
            wal.append({"n": index})
        wal.close()

    def test_partial_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "a.wal"
        self._write(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])  # mid-record crash

        replay = reopened(path).replay()
        assert [record["n"] for record in replay] == [0, 1, 2, 3]
        assert replay.torn_records == 1

    def test_corrupted_crc_drops_the_record(self, tmp_path):
        path = tmp_path / "a.wal"
        self._write(path, count=3)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = lines[-1].replace(b'"n":2', b'"n":9')  # bit flip
        path.write_bytes(b"".join(lines))

        replay = reopened(path).replay()
        assert [record["n"] for record in replay] == [0, 1]
        assert replay.torn_records == 1

    def test_non_json_float_record_counts_as_damage(self, tmp_path):
        # A well-framed line whose payload holds Infinity is no record
        # this WAL could have written.
        path = tmp_path / "a.wal"
        self._write(path, count=1)
        body = '{"epsilon":Infinity}'
        crc = zlib.crc32(body.encode("utf-8"))
        with open(path, "ab") as handle:
            handle.write(
                f'{{"seq":1,"crc":{crc},"payload":{body}}}\n'.encode()
            )

        replay = reopened(path).replay()
        assert [record["n"] for record in replay] == [0]
        assert replay.torn_records == 1

    def test_damage_in_the_middle_drops_everything_after(self, tmp_path):
        # Appends are sequential, so anything after a damaged line was
        # never acknowledged — trusting it would resurrect records
        # whose predecessors are gone.
        path = tmp_path / "a.wal"
        self._write(path, count=5)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"garbage not json\n"
        path.write_bytes(b"".join(lines))

        replay = reopened(path).replay()
        assert [record["n"] for record in replay] == [0, 1]
        assert replay.torn_records == 3

    def test_replay_truncates_the_torn_tail_off_the_file(
        self, tmp_path
    ):
        # Leaving the damaged bytes in place would strand every later
        # append behind an unparsable line — the restart after next
        # would then silently drop acknowledged records.
        path = tmp_path / "a.wal"
        self._write(path, count=3)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])

        wal = reopened(path)
        replay = wal.replay()
        assert replay.torn_records == 1
        wal.close()
        # The file now ends exactly at the last intact record.
        clean = reopened(path).replay()
        assert clean.torn_records == 0
        assert [record["n"] for record in clean] == [0, 1]

    def test_records_synced_after_torn_recovery_survive_next_restart(
        self, tmp_path
    ):
        # The full double-restart scenario: crash leaves a torn tail;
        # restart 1 recovers and serves (appending + syncing new
        # records); restart 2 must see every post-crash record.
        path = tmp_path / "a.wal"
        self._write(path, count=3)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])

        restart_one = reopened(path)
        survivors = [record["n"] for record in restart_one.replay()]
        restart_one.append({"n": "acknowledged"})
        restart_one.sync()
        restart_one.close()

        restart_two = reopened(path).replay()
        assert [record["n"] for record in restart_two] == (
            survivors + ["acknowledged"]
        )
        assert restart_two.torn_records == 0


class TestFsyncBatching:
    def test_batch_policy_fsyncs_once_per_barrier(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal", fsync="batch")
        for index in range(10):
            wal.append({"n": index})
        assert wal.syncs == 0
        wal.sync()
        assert wal.syncs == 1
        wal.sync()  # nothing new appended — group commit no-op
        assert wal.syncs == 1
        wal.close()

    def test_always_policy_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal", fsync="always")
        for index in range(4):
            wal.append({"n": index})
        assert wal.syncs == 4
        wal.close()


class TestRewrite:
    def test_rewrite_replaces_contents_atomically(self, tmp_path):
        path = tmp_path / "a.wal"
        wal = WriteAheadLog(path)
        for index in range(5):
            wal.append({"n": index})
        wal.rewrite([{"n": "only"}])

        replay = reopened(path).replay()
        assert [record["n"] for record in replay] == ["only"]
        assert not list(path.parent.glob("*.compact"))  # temp cleaned

    def test_rewrite_empty_truncates(self, tmp_path):
        path = tmp_path / "a.wal"
        wal = WriteAheadLog(path)
        wal.append({"n": 0})
        wal.rewrite(())
        assert wal.size_bytes() == 0
        assert len(reopened(path).replay()) == 0


class TestRequireDirectory:
    def test_creates_missing_directories(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert require_directory(target) == target
        assert target.is_dir()

    def test_refuses_a_regular_file(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("not a directory")
        with pytest.raises(StateStoreError, match="not a directory"):
            require_directory(target)
