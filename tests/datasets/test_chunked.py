"""Chunked-loader fuzz and contract tests.

The chunked loaders feed the trusted zero-validation
``from_sorted_rows`` path and the mmap spill store, so *they* carry
the validation burden: every malformed input must raise a typed
:class:`DatasetFormatError` (with source + line) or
:class:`DatasetTruncatedError` — never silently mis-count.  This
suite fuzzes the failure modes the wire can actually produce
(truncated final record, gzip members cut short, duplicate /
non-monotone / non-integer items) in FIMI files, plain and gzip, and
pins chunk geometry, ``read_fimi`` parity, and the
deterministic tier synthesis the registry serves.
"""

from __future__ import annotations

import gzip
import io

import numpy as np
import pytest

from repro.datasets.chunked import (
    DEFAULT_CHUNK_SIZE,
    iter_transaction_chunks,
    load_chunked,
    synthesize_tier_chunks,
    write_tier_file,
)
from repro.datasets.fimi import parse_item_token, read_fimi
from repro.datasets.transactions import TransactionDatabase
from repro.errors import (
    DatasetFormatError,
    DatasetTruncatedError,
    ValidationError,
    error_to_wire,
)


def write_text(path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def rows_of(chunks):
    return [row.tolist() for chunk in chunks for row in chunk.rows]


# ----------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------
class TestChunkGeometry:
    def test_fixed_size_chunks_with_smaller_tail(self, tmp_path):
        path = tmp_path / "db.dat"
        write_text(path, "".join(f"{i} {i + 1}\n" for i in range(7)))
        chunks = list(iter_transaction_chunks(path, chunk_size=3))
        assert [chunk.num_transactions for chunk in chunks] == [3, 3, 1]
        assert int(chunks[-1].items.max()) == 7
        assert chunks[0].total_size == 6
        assert rows_of(chunks) == [[i, i + 1] for i in range(7)]

    def test_chunk_database_roundtrip(self, tmp_path):
        path = tmp_path / "db.dat"
        write_text(path, "0 2\n1 3\n")
        (chunk,) = iter_transaction_chunks(path, chunk_size=10,
                                           num_items=6)
        assert isinstance(chunk, TransactionDatabase)
        assert chunk.num_transactions == 2
        assert chunk.num_items == 6
        np.testing.assert_array_equal(chunk.offsets, [0, 2, 4])
        np.testing.assert_array_equal(chunk.items, [0, 2, 1, 3])

    def test_default_chunk_size_matches_shard_default(self):
        from repro.engine.mmap import DEFAULT_SHARD_SIZE

        assert DEFAULT_CHUNK_SIZE == DEFAULT_SHARD_SIZE

    def test_chunk_size_must_be_positive(self, tmp_path):
        path = tmp_path / "db.dat"
        write_text(path, "1\n")
        with pytest.raises(ValidationError):
            list(iter_transaction_chunks(path, chunk_size=0))

    @pytest.mark.parametrize(
        ("name", "gzipped"),
        [
            ("data.dat", False),
            ("data.txt", False),
            ("data.csv", False),
            ("data.ndjson", False),
            ("data.unknown", False),
            ("data.dat.gz", True),
            ("data.csv.gz", True),
            ("DATA.DAT.GZ", True),
        ],
    )
    def test_every_file_is_fimi_and_gz_selects_gzip(
        self, tmp_path, name, gzipped
    ):
        path = tmp_path / name
        text = "0 2\n1 3 4\n"
        if gzipped:
            with gzip.open(path, "wt", encoding="utf-8") as handle:
                handle.write(text)
        else:
            write_text(path, text)
        assert rows_of(iter_transaction_chunks(path)) == [[0, 2], [1, 3, 4]]

    def test_max_item_is_per_chunk(self):
        """Without a declared vocabulary each chunk spans its own
        largest id."""
        stream = io.StringIO("7\n1\n2 3\n")
        chunks = list(iter_transaction_chunks(stream, chunk_size=1))
        assert [chunk.num_items for chunk in chunks] == [8, 2, 4]

    def test_empty_source_yields_no_chunks(self, tmp_path):
        path = tmp_path / "empty.dat"
        write_text(path, "")
        assert list(iter_transaction_chunks(path)) == []
        database = load_chunked(path)
        assert database.num_transactions == 0
        assert database.num_items == 1

    def test_num_items_bound_is_exclusive(self):
        (chunk,) = iter_transaction_chunks(io.StringIO("0 4\n"),
                                           num_items=5)
        assert chunk.num_items == 5
        with pytest.raises(DatasetFormatError, match="out of range"):
            list(iter_transaction_chunks(io.StringIO("0 5\n"),
                                         num_items=5))

    def test_load_chunked_keeps_declared_vocabulary(self):
        database = load_chunked(io.StringIO("0 1\n2\n"), chunk_size=1,
                                num_items=10)
        assert database.num_transactions == 2
        assert database.num_items == 10
        np.testing.assert_array_equal(
            database.item_supports(), [1, 1, 1] + [0] * 7
        )

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            list(iter_transaction_chunks(tmp_path / "absent.dat"))


# ----------------------------------------------------------------------
# Truncation: the stream ends mid-record
# ----------------------------------------------------------------------
class TestTruncation:
    def test_missing_final_newline_raises(self, tmp_path):
        path = tmp_path / "db.dat"
        write_text(path, "0 1\n2 3\n4 5")  # cut mid-transfer
        with pytest.raises(DatasetTruncatedError) as excinfo:
            list(iter_transaction_chunks(path))
        assert excinfo.value.line == 3
        assert str(path) in str(excinfo.value.source)

    def test_truncated_row_never_reaches_a_chunk(self, tmp_path):
        """The cut line must not ride out inside an already-full
        chunk: nothing from the poisoned tail is yielded."""
        path = tmp_path / "db.dat"
        write_text(path, "0\n1\n2\n3 4")
        received = []
        with pytest.raises(DatasetTruncatedError):
            for chunk in iter_transaction_chunks(path, chunk_size=2):
                received.extend(rows_of([chunk]))
        assert received == [[0], [1]]  # the complete first chunk only

    def test_gzip_member_cut_short(self, tmp_path):
        path = tmp_path / "db.dat.gz"
        payload = "".join(f"{i}\n" for i in range(2_000))
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(payload)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # cut mid-member
        with pytest.raises(DatasetTruncatedError) as excinfo:
            list(iter_transaction_chunks(path))
        assert excinfo.value.wire_code == "dataset_truncated"

    def test_corrupt_gzip_is_format_error(self, tmp_path):
        path = tmp_path / "db.dat.gz"
        path.write_bytes(b"this is not gzip at all")
        with pytest.raises(DatasetFormatError):
            list(iter_transaction_chunks(path))

    def test_truncated_error_wire_shape(self):
        error = DatasetTruncatedError(
            "line 3: stream ends mid-record", source="db.dat", line=3
        )
        wire = error_to_wire(error)
        assert wire["error"] == "dataset_truncated"
        assert wire["source"] == "db.dat"
        assert wire["line"] == 3


# ----------------------------------------------------------------------
# Strict row validation (rows feed from_sorted_rows)
# ----------------------------------------------------------------------
class TestStrictValidation:
    @pytest.mark.parametrize(
        ("payload", "fragment"),
        [
            ("0 3 3 5\n", "duplicate"),
            ("5 2\n", "non-monotone"),
            ("1 -4\n", "negative"),
            ("1 x\n", "non-integer"),
            ("1_0\n", "non-integer"),  # int("1_0") would accept this
            ("+5\n", "non-integer"),  # int("+5") would accept this
            ("١٢\n", "non-integer"),  # Arabic-Indic digits
            ("0 9999999999\n", "out of range"),
        ],
    )
    def test_fimi_rejections(self, tmp_path, payload, fragment):
        path = tmp_path / "db.dat"
        write_text(path, "0 1\n" + payload)
        with pytest.raises(DatasetFormatError) as excinfo:
            list(iter_transaction_chunks(path, num_items=100))
        assert fragment in str(excinfo.value)
        assert excinfo.value.line == 2

    def test_fimi_blank_lines_skipped_like_read_fimi(self, tmp_path):
        path = tmp_path / "db.dat"
        write_text(path, "0 1\n\n  \n2 3\n")
        chunks = list(iter_transaction_chunks(path))
        assert rows_of(chunks) == [[0, 1], [2, 3]]

    def test_parse_item_token_is_strict(self):
        assert parse_item_token("42", 1) == 42
        for bad in ("1_0", "+5", " 7", "0x1f", "", "١"):
            with pytest.raises(DatasetFormatError):
                parse_item_token(bad, 1)
        with pytest.raises(DatasetFormatError, match="negative"):
            parse_item_token("-5", 1)


# ----------------------------------------------------------------------
# Parity with the forgiving materializing loader
# ----------------------------------------------------------------------
class TestReadFimiParity:
    @pytest.mark.parametrize("seed", range(4))
    def test_load_chunked_matches_read_fimi(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        lines = []
        for _ in range(50):
            size = int(rng.integers(1, 8))
            row = np.unique(rng.integers(0, 30, size=size))
            lines.append(" ".join(str(int(i)) for i in row))
        path = tmp_path / "db.dat"
        write_text(path, "\n".join(lines) + "\n")

        chunked = load_chunked(path, chunk_size=int(rng.integers(1, 9)))
        reference = read_fimi(path)
        assert chunked.num_transactions == reference.num_transactions
        assert chunked.num_items == reference.num_items
        for mine, theirs in zip(chunked.rows, reference.rows):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(
            chunked.item_supports(), reference.item_supports()
        )

    def test_gzip_and_plain_agree(self, tmp_path):
        text = "0 1 2\n3 4\n0 4\n"
        plain = tmp_path / "db.dat"
        write_text(plain, text)
        zipped = tmp_path / "db.dat.gz"
        with gzip.open(zipped, "wt", encoding="utf-8") as handle:
            handle.write(text)
        assert rows_of(iter_transaction_chunks(plain)) == (
            rows_of(iter_transaction_chunks(zipped))
        )

    def test_stream_source_supported(self):
        stream = io.StringIO("0 1\n2\n")
        chunks = list(iter_transaction_chunks(stream, chunk_size=1))
        assert rows_of(chunks) == [[0, 1], [2]]


# ----------------------------------------------------------------------
# Tier synthesis + registry wiring
# ----------------------------------------------------------------------
class TestTiers:
    def test_synthesis_is_deterministic(self):
        first = rows_of(
            synthesize_tier_chunks(200, 50, 5.0, seed=9, chunk_size=64)
        )
        second = rows_of(
            synthesize_tier_chunks(200, 50, 5.0, seed=9, chunk_size=64)
        )
        assert first == second
        assert len(first) == 200
        assert all(rows for rows in first)  # never an empty row

    def test_synthesis_chunk_size_does_not_change_rows(self):
        coarse = rows_of(synthesize_tier_chunks(100, 40, 6.0, seed=3,
                                                chunk_size=100))
        fine = rows_of(synthesize_tier_chunks(100, 40, 6.0, seed=3,
                                              chunk_size=7))
        # Different chunking draws RNG in different batch shapes, so
        # only the geometry contract holds: same row count, valid rows.
        assert len(coarse) == len(fine) == 100

    def test_write_tier_file_roundtrip(self, tmp_path):
        chunks = list(
            synthesize_tier_chunks(120, 30, 4.0, seed=5, chunk_size=32)
        )
        path = tmp_path / "tier.dat.gz"
        written = write_tier_file(path, iter(chunks))
        assert written == 120
        loaded = rows_of(iter_transaction_chunks(path, chunk_size=50))
        assert loaded == rows_of(chunks)

    def test_registry_serves_tiers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TIER_DIR", str(tmp_path))
        from repro.datasets.registry import (
            TIERS,
            ensure_tier_file,
            load_dataset,
            registered_names,
            tier_names,
        )

        assert set(tier_names()) <= set(registered_names())
        spec = TIERS["tier-tiny"]
        path = ensure_tier_file("tier-tiny")
        assert path.exists()
        chunks = iter_transaction_chunks(path, chunk_size=512,
                                         num_items=spec.num_items)
        total = sum(chunk.num_transactions for chunk in chunks)
        assert total == spec.num_transactions
        database = load_dataset("tier-tiny")
        assert database.num_transactions == spec.num_transactions
        assert database.num_items == spec.num_items
        # Tiers are re-read, not memoized.
        assert load_dataset("tier-tiny") is not database
