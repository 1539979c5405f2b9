"""Out-of-core plane equivalence suite (tiered, seeded-random DBs).

The pinned property: a database that is **chunk-loaded from disk and
spilled into memory-mapped shard segments** answers every counting
primitive — and produces every full PrivBasis release (itemsets,
noisy frequencies, ε ledger) — **bit-identically** to the RAM-resident
:class:`BitmapBackend` and the pure-Python :class:`NaiveBackend`
oracle.  Counts are exact integers and additive over any partition,
so this holds by construction; the suite pins it against regressions
across the chunk → spill → attach → merge path and after O(Δ)
``extend``.

Randomization is seeded (no hypothesis dependency): each seed drives
an independent database shape, chunk size, and segment size.
"""

from __future__ import annotations

import gzip
import os

import numpy as np
import pytest

from repro.core.privbasis import privbasis
from repro.datasets.chunked import (
    iter_transaction_chunks,
    load_chunked,
)
from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    NaiveBackend,
    PrivBasisSession,
    ShardedBackend,
)
from repro.engine.mmap import MmapShardStore


def random_rows(seed: int, num_transactions: int = 70,
                num_items: int = 14):
    """Seeded random non-empty sorted transactions."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(num_transactions):
        size = int(rng.integers(1, 7))
        rows.append(
            np.unique(rng.integers(0, num_items, size=size))
        )
    return rows, num_items


def write_fimi_gz(path, rows) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for row in rows:
            handle.write(" ".join(str(int(i)) for i in row) + "\n")


def spilled_backend(tmp_path, seed: int, *, memory_budget_bytes=None):
    """Disk file → chunked load → mmap spill → sharded backend.

    Returns ``(backend, database)`` where ``database`` is the same
    file materialized in RAM (the equivalence reference input).
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    rows, num_items = random_rows(seed)
    source = tmp_path / f"db-{seed}.dat.gz"
    write_fimi_gz(source, rows)
    chunk_size = int(rng.integers(3, 40))
    rows_per_segment = int(rng.integers(5, 30))
    store = MmapShardStore.build(
        tmp_path / f"shards-{seed}",
        iter_transaction_chunks(
            source, num_items=num_items, chunk_size=chunk_size
        ),
        num_items=num_items,
        rows_per_segment=rows_per_segment,
        memory_budget_bytes=memory_budget_bytes,
    )
    backend = ShardedBackend(store, max_workers=2)
    database = load_chunked(source, num_items=num_items)
    return backend, database


def queries_for(num_items: int, seed: int):
    rng = np.random.default_rng(seed + 99)
    pool = sorted(
        int(i) for i in rng.choice(num_items, size=6, replace=False)
    )
    bases = [pool[:4], pool[2:6], [pool[0]]]
    return pool, bases


def assert_backends_equivalent(candidate, reference, seed: int):
    """Every counting primitive, bit for bit."""
    num_items = reference.num_items
    pool, bases = queries_for(num_items, seed)
    np.testing.assert_array_equal(
        candidate.item_supports(), reference.item_supports()
    )
    assert candidate.pairwise_supports(pool) == (
        reference.pairwise_supports(pool)
    )
    for got, want in zip(
        candidate.bin_counts_batch(bases),
        reference.bin_counts_batch(bases),
    ):
        np.testing.assert_array_equal(got, want)
    assert candidate.num_transactions == reference.num_transactions
    assert candidate.num_items == reference.num_items


# ----------------------------------------------------------------------
# Counting equivalence: chunk → spill → attach vs RAM-resident
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(5))
def test_spilled_counts_match_bitmap_and_naive(tmp_path, seed):
    backend, database = spilled_backend(tmp_path, seed)
    with backend:
        assert_backends_equivalent(
            backend, BitmapBackend(database), seed
        )
        assert_backends_equivalent(
            backend, NaiveBackend(database), seed
        )


def test_tiny_memory_budget_still_bit_identical(tmp_path):
    """Constant eviction pressure must never change an answer."""
    backend, database = spilled_backend(
        tmp_path, seed=11, memory_budget_bytes=1
    )
    with backend:
        assert_backends_equivalent(
            backend, BitmapBackend(database), 11
        )
        stats = backend.data_plane_stats()
        assert stats["plane"] == "mmap"
        # The cache may keep at most one shard pinned under a budget
        # this small.
        assert stats["cached_shards"] <= 1


# ----------------------------------------------------------------------
# O(Δ) extend: the tail segment is rewritten in place
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_extend_matches_reference(tmp_path, seed):
    backend, database = spilled_backend(tmp_path, seed)
    delta_rows, num_items = random_rows(seed + 500,
                                        num_transactions=23)
    delta = TransactionDatabase(delta_rows, num_items=num_items)
    reference = BitmapBackend(database.extended(delta))

    with backend:
        backend.extend(delta)
        assert_backends_equivalent(backend, reference, seed)


# ----------------------------------------------------------------------
# Full pipeline: identical DP releases (itemsets, frequencies, ε)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(3))
def test_privbasis_release_bit_identical(tmp_path, seed):
    backend, database = spilled_backend(tmp_path, seed)
    with backend:
        spilled = privbasis(
            backend, k=6, epsilon=1.0,
            rng=np.random.default_rng(seed),
        )
    resident = privbasis(
        database, k=6, epsilon=1.0,
        rng=np.random.default_rng(seed),
        backend=BitmapBackend(database),
    )
    assert spilled.itemsets == resident.itemsets
    assert spilled.frequencies() == resident.frequencies()
    assert spilled.budget == resident.budget


@pytest.mark.parametrize("seed", range(2))
def test_session_releases_bit_identical(tmp_path, seed):
    """Sessions over both planes: same releases and snapshot versions
    — including after a live ingest."""
    backend, database = spilled_backend(tmp_path, seed)
    out_of_core = PrivBasisSession(backend)
    resident = PrivBasisSession(database)

    for round_seed in (1, 2):
        got = out_of_core.release(
            k=5, epsilon=0.8, rng=np.random.default_rng(round_seed)
        )
        want = resident.release(
            k=5, epsilon=0.8, rng=np.random.default_rng(round_seed)
        )
        assert got.frequencies() == want.frequencies()
        assert got.itemsets == want.itemsets

    delta_rows, _ = random_rows(seed + 77, num_transactions=9)
    assert out_of_core.ingest(list(delta_rows)) == (
        resident.ingest(list(delta_rows))
    )
    got = out_of_core.release(
        k=4, epsilon=0.5, rng=np.random.default_rng(3)
    )
    want = resident.release(
        k=4, epsilon=0.5, rng=np.random.default_rng(3)
    )
    assert got.frequencies() == want.frequencies()
    assert got.snapshot_version == want.snapshot_version
    out_of_core.close()


# ----------------------------------------------------------------------
# Store-level invariants the planes rely on
# ----------------------------------------------------------------------
def test_store_stats_and_budget_accounting(tmp_path):
    backend, database = spilled_backend(
        tmp_path, 13, memory_budget_bytes=1 << 20
    )
    with backend:
        backend.item_supports()
        stats = backend.data_plane_stats()
        assert stats["rows"] == database.num_transactions
        assert stats["spilled_bytes"] > 0
        assert stats["memory_budget_bytes"] == 1 << 20
        assert stats["segments"] == stats["shards"]


def test_closed_backend_store_rejects_queries(tmp_path):
    from repro.errors import StateStoreError

    backend, _ = spilled_backend(tmp_path, 17)
    store = backend.store
    backend.close()
    with pytest.raises(StateStoreError):
        store.shard_database(0)


def test_session_close_closes_the_backend_store(tmp_path):
    from repro.errors import StateStoreError

    backend, _ = spilled_backend(tmp_path, 18)
    with PrivBasisSession(backend) as session:
        result = session.release(k=5, epsilon=1.0, rng=0)
        assert len(result.itemsets) == 5
    with pytest.raises(StateStoreError):
        backend.store.shard_database(0)


# ----------------------------------------------------------------------
# Zero-copy attach: a segment is viewed, never unpacked
# ----------------------------------------------------------------------
def _forbid_row_views(monkeypatch):
    """Make any per-row access on a database fail the test."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a counting kernel materialized rows")

    monkeypatch.setattr(TransactionDatabase, "rows", property(forbidden))
    monkeypatch.setattr(TransactionDatabase, "transaction_array", forbidden)
    monkeypatch.setattr(TransactionDatabase, "__iter__", forbidden)


def _assert_counts_from_views(attached, reference, mapping, monkeypatch):
    from repro.engine import sharded

    np.testing.assert_array_equal(attached.offsets, reference.offsets)
    np.testing.assert_array_equal(attached.items, reference.items)
    assert np.shares_memory(attached.offsets, mapping)
    assert np.shares_memory(attached.items, mapping)
    for item in range(reference.num_items):
        tids = attached.tidlist(item)
        np.testing.assert_array_equal(tids, reference.tidlist(item))
        if tids.size:
            assert np.shares_memory(tids, mapping)
    bases = [(0, 1, 2), (3,), (1, 4, 5, 6)]
    pool = list(range(reference.num_items))
    want_bins = sharded.shard_bin_counts_batch(reference, bases)
    want_pairs = sharded.shard_pairwise_supports(reference, pool)
    _forbid_row_views(monkeypatch)
    for got, want in zip(
        sharded.shard_bin_counts_batch(attached, bases), want_bins
    ):
        np.testing.assert_array_equal(got, want)
    assert sharded.shard_pairwise_supports(attached, pool) == want_pairs


def test_file_segment_attaches_zero_copy(tmp_path, monkeypatch):
    from repro.engine.mmap import attach_file_segment, write_segment

    rows, num_items = random_rows(21)
    reference = TransactionDatabase(rows, num_items=num_items)
    spec = write_segment(tmp_path / "seg-000000.seg", reference)
    mapping, attached = attach_file_segment(spec)
    _assert_counts_from_views(attached, reference, mapping, monkeypatch)


def test_spilled_backend_never_builds_rows(tmp_path, monkeypatch):
    """Every primitive over a store counts from the mapped CSR."""
    backend, database = spilled_backend(tmp_path, 23)
    reference = BitmapBackend(database)
    pool, bases = queries_for(database.num_items, 23)
    want_bins = reference.bin_counts_batch(bases)
    want_pairs = reference.pairwise_supports(pool)
    _forbid_row_views(monkeypatch)
    with backend:
        for got, want in zip(backend.bin_counts_batch(bases), want_bins):
            np.testing.assert_array_equal(got, want)
        assert backend.pairwise_supports(pool) == want_pairs


def test_resident_bytes_are_the_mapped_files(tmp_path):
    """The LRU budget charges exactly the bytes a cached shard maps."""
    backend, _ = spilled_backend(tmp_path, 24)
    with backend:
        store = backend.store
        store.shard_database(0)
        store.shard_database(1)
        sizes = [
            os.path.getsize(spec.path) for spec in store.segment_specs[:2]
        ]
        assert store.resident_bytes() == sum(sizes)
        assert backend.data_plane_stats()["resident_shard_bytes"] == (
            sum(sizes)
        )


def test_session_shape_reads_never_copy_the_store(tmp_path, monkeypatch):
    """Ingest and stats read N and |I| off the store, not a RAM copy."""
    backend, database = spilled_backend(tmp_path, 25)

    def forbidden(_store):
        raise AssertionError("the store was copied into RAM")

    monkeypatch.setattr(MmapShardStore, "database", forbidden)
    session = PrivBasisSession(backend)
    delta_rows, _ = random_rows(26, num_transactions=9)
    assert session.ingest([row.tolist() for row in delta_rows]) == 1
    total = database.num_transactions + 9
    assert session.stats()["num_transactions"] == total
    assert session.backend.num_transactions == total
    assert session.backend.num_items == database.num_items
    session.close()
