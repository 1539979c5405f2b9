"""Streaming chunked loaders: fixed-size transaction chunks from disk.

Everything else in :mod:`repro.datasets` materializes the whole
transaction log before handing it to an engine backend.  That is fine
for mushroom-sized data and fatal for kosarak/AOL-sized data, so this
module reads transaction files **chunk by chunk** — a bounded number
of rows in memory at any moment — in the FIMI ``.dat`` text format:
one transaction per line, items as whitespace-separated integers,
gzip-compressed when the file name ends in ``.gz``.  Blank lines are
skipped, matching :func:`repro.datasets.fimi.read_fimi`.

Every chunk is a CSR
:class:`~repro.datasets.transactions.TransactionDatabase`, built
through the trusted
:meth:`~repro.datasets.transactions.TransactionDatabase
.from_sorted_rows` path and fed as is to the mmap spill store
(:meth:`~repro.engine.mmap.MmapShardStore.build`).  That path performs
**no full validation** — so this module is strict where
:func:`~repro.datasets.fimi.read_fimi` is forgiving.  Every row must
be strictly increasing (sorted, duplicate-free); duplicate items,
non-monotone ids, negative or non-integer tokens raise
:class:`~repro.errors.DatasetFormatError` with the source and line,
and a stream that ends mid-record (no final newline, or a gzip member
cut short) raises :class:`~repro.errors.DatasetTruncatedError` instead
of silently keeping the prefix that happened to parse.

The module also generates the synthetic benchmark **size tiers**
(`tiny`/`small`/`large`) to disk on demand — a vectorized sampler
writes gzip-FIMI files chunk-by-chunk, so even the large tier never
materializes in memory during generation.  The registry names them
``tier-tiny`` etc.; see :mod:`repro.datasets.registry`.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Union

import numpy as np

from repro.datasets.fimi import parse_item_token
from repro.datasets.transactions import TransactionDatabase
from repro.errors import (
    DatasetFormatError,
    DatasetTruncatedError,
    ValidationError,
)

PathLike = Union[str, Path]

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "iter_transaction_chunks",
    "load_chunked",
    "synthesize_tier_chunks",
    "write_tier_file",
]

#: Rows per chunk when the caller does not choose.  Matches the
#: engine's default shard granularity so a chunked load spills one
#: segment per chunk without re-slicing.
DEFAULT_CHUNK_SIZE = 65_536


def iter_transaction_chunks(
    source: Union[PathLike, TextIO],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    num_items: Optional[int] = None,
) -> Iterator[TransactionDatabase]:
    """Stream FIMI ``source`` as validated fixed-size CSR chunks.

    Each chunk is a :class:`~repro.datasets.transactions
    .TransactionDatabase` over ``num_items`` items — or, when that is
    not given, over the chunk's own largest id plus one.

    Parameters
    ----------
    source:
        Path to a data file (gzip detected by ``.gz`` suffix) or an
        open text stream.
    chunk_size:
        Rows per yielded chunk (the final chunk may be smaller).
    num_items:
        Optional vocabulary bound: any item id ``>= num_items`` is a
        :class:`~repro.errors.DatasetFormatError`.

    Raises
    ------
    DatasetFormatError
        Malformed tokens, duplicate items in a row, non-monotone item
        ids, out-of-range ids.
    DatasetTruncatedError
        The stream ends mid-record: missing final newline, or a gzip
        member cut short.
    """
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
    if isinstance(source, (str, Path)):
        label = str(source)
        path = Path(source)
        if not path.exists():
            raise DatasetFormatError(f"no such dataset file: {label}",
                                     source=label)
        if path.name.lower().endswith(".gz"):
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                yield from _chunk_stream(
                    handle, label, chunk_size, num_items, gzipped=True,
                )
            return
        with open(path, "r", encoding="utf-8") as handle:
            yield from _chunk_stream(handle, label, chunk_size, num_items)
        return
    label = getattr(source, "name", "<stream>")
    yield from _chunk_stream(source, str(label), chunk_size, num_items)


def load_chunked(
    source: Union[PathLike, TextIO],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    num_items: Optional[int] = None,
) -> TransactionDatabase:
    """Materialize a chunk-validated file as one in-memory database.

    The convenience path for callers on the ``memory`` data plane who
    still want the strict chunked validation (and gzip support).
    Memory use is the full dataset — feed :func:`iter_transaction_chunks`
    to :meth:`~repro.engine.mmap.MmapShardStore.build` to stay out of
    core.
    """
    parts = list(iter_transaction_chunks(
        source, chunk_size=chunk_size, num_items=num_items
    ))
    vocabulary = max(
        [part.num_items for part in parts], default=num_items or 1
    )
    return TransactionDatabase.concatenate(parts, vocabulary)


# ----------------------------------------------------------------------
# Line parsing (strict)
# ----------------------------------------------------------------------
def _parse_fimi_line(line: str, line_number: int,
                     source: str) -> Optional[np.ndarray]:
    stripped = line.strip()
    if not stripped:
        return None  # blank-line skip, matching read_fimi
    row = np.asarray(
        [
            parse_item_token(token, line_number, source=source)
            for token in stripped.split()
        ],
        dtype=np.int64,
    )
    if row.size > 1:
        steps = np.diff(row)
        if np.any(steps == 0):
            position = int(np.argmax(steps == 0))
            raise DatasetFormatError(
                f"line {line_number}: duplicate item "
                f"{int(row[position])} in transaction",
                source=source, line=line_number,
            )
        if np.any(steps < 0):
            position = int(np.argmax(steps < 0))
            raise DatasetFormatError(
                f"line {line_number}: non-monotone item ids "
                f"({int(row[position])} then {int(row[position + 1])}); "
                f"chunked loaders require sorted transactions",
                source=source, line=line_number,
            )
    return row


def _chunk_stream(
    handle: TextIO,
    source: str,
    chunk_size: int,
    num_items: Optional[int],
    gzipped: bool = False,
) -> Iterator[TransactionDatabase]:
    pending: List[np.ndarray] = []
    line_number = 0
    line = ""
    lines = iter(handle)
    while True:
        try:
            line = next(lines)
        except StopIteration:
            break
        except EOFError as exc:
            # gzip's "compressed file ended before the end-of-stream
            # marker" — the member was cut mid-stream.
            raise DatasetTruncatedError(
                f"gzip stream ended mid-member after line {line_number}",
                source=source, line=line_number or None,
            ) from exc
        except (gzip.BadGzipFile, OSError) as exc:
            if gzipped:
                raise DatasetFormatError(
                    f"corrupt gzip stream: {exc}", source=source,
                ) from exc
            raise
        line_number += 1
        if not line.endswith("\n"):
            # A data line without its newline is the signature of a
            # cut transfer: "5 1" may be the prefix of "5 12".
            # Refuse the ambiguity rather than mis-count.
            raise DatasetTruncatedError(
                f"line {line_number}: stream ends mid-record (no "
                f"final newline) — refusing a possibly truncated "
                f"transaction",
                source=source, line=line_number,
            )
        row = _parse_fimi_line(line, line_number, source)
        if row is None:
            continue
        if num_items is not None and int(row[-1]) >= num_items:
            raise DatasetFormatError(
                f"line {line_number}: item id {int(row[-1])} out of "
                f"range for num_items={num_items}",
                source=source, line=line_number,
            )
        pending.append(row)
        if len(pending) >= chunk_size:
            yield _chunk(pending, num_items)
            pending = []
    if pending:
        yield _chunk(pending, num_items)


def _chunk(rows: List[np.ndarray],
           num_items: Optional[int]) -> TransactionDatabase:
    """Validated ``rows`` as one CSR chunk over ``num_items`` items —
    or, when that is not declared, over their largest id plus one."""
    if num_items is None:
        num_items = max(int(row[-1]) for row in rows) + 1
    return TransactionDatabase.from_sorted_rows(rows, num_items)


# ----------------------------------------------------------------------
# Synthetic size tiers
# ----------------------------------------------------------------------
def synthesize_tier_chunks(
    num_transactions: int,
    num_items: int,
    avg_items: float,
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[TransactionDatabase]:
    """Vectorized synthetic CSR chunk stream for the size tiers.

    Row lengths are Poisson around ``avg_items`` (at least 1, at most
    ``num_items``); item draws follow a power-law so low ids are
    frequent — the skew PrivBasis needs for interesting top-k
    structure.  Deterministic in ``seed``; memory is bounded by one
    chunk.  (The Quest generator in :mod:`repro.datasets.synthetic`
    is pattern-faithful but Python-loop slow — at large-tier scale it
    would dominate the benchmark it feeds.)
    """
    if num_transactions < 1:
        raise ValidationError(
            f"num_transactions must be >= 1, got {num_transactions}"
        )
    if num_items < 2:
        raise ValidationError(f"num_items must be >= 2, got {num_items}")
    rng = np.random.default_rng(seed)
    start = 0
    while start < num_transactions:
        count = min(chunk_size, num_transactions - start)
        lengths = rng.poisson(max(avg_items - 1.0, 0.0), count) + 1
        lengths = np.minimum(lengths, num_items)
        draws = (num_items * rng.random(int(lengths.sum())) ** 2.5)
        draws = draws.astype(np.int64)
        boundaries = np.cumsum(lengths)[:-1]
        yield TransactionDatabase.from_sorted_rows(
            [np.unique(part) for part in np.split(draws, boundaries)],
            num_items,
        )
        start += count


def write_tier_file(
    path: PathLike,
    chunks: Iterable[TransactionDatabase],
) -> int:
    """Write ``chunks`` as a gzip-FIMI file, atomically; returns rows.

    The file appears under ``path`` only once fully written (tmp +
    rename), so a crash mid-generation never leaves a truncated tier
    for the next run to trip over.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temp_path = path.with_name(path.name + ".tmp")
    rows_written = 0
    try:
        with gzip.open(temp_path, "wt", encoding="utf-8") as handle:
            for chunk in chunks:
                buffer = io.StringIO()
                for row in chunk.rows:
                    buffer.write(" ".join(str(int(i)) for i in row))
                    buffer.write("\n")
                handle.write(buffer.getvalue())
                rows_written += chunk.num_transactions
        temp_path.replace(path)
    finally:
        temp_path.unlink(missing_ok=True)
    return rows_written
