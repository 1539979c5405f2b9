"""Backend-equivalence property tests.

Every :class:`~repro.engine.backend.CountingBackend` must return
*identical exact counts* — the DP mechanisms downstream are then
backend-independent by construction.  These tests pin
:class:`BitmapBackend` and :class:`ShardedBackend` (spilled stores of
several shard sizes, several thread-pool widths) against the pure-Python
:class:`NaiveBackend` oracle on random small databases, plus the edge
cases (empty transactions, empty pools, the empty itemset) and the
batched primitives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    CachedBackend,
    NaiveBackend,
    as_backend,
    resolve_backend,
)
from repro.errors import ValidationError
from repro.fim.counting import (
    DEFAULT_MAX_BASIS_LENGTH,
    MAX_BIN_BASIS_LENGTH,
    bin_counts_for_items,
    database_of,
)
from repro.pipeline.trace import QueryCountingBackend
from tests.engine.spill import spilled


def random_database(
    seed: int, num_transactions: int = 80, num_items: int = 14
) -> TransactionDatabase:
    """A random sparse database (some transactions may be empty)."""
    rng = np.random.default_rng(seed)
    member = rng.random((num_transactions, num_items)) < rng.uniform(
        0.05, 0.4
    )
    rows = [np.flatnonzero(row) for row in member]
    return TransactionDatabase(rows, num_items=num_items)


def backends_under_test(database: TransactionDatabase):
    """The oracle plus every production backend configuration."""
    return [
        NaiveBackend(database),
        BitmapBackend(database),
        spilled(database, rows_per_segment=7, max_workers=1),
        spilled(database, rows_per_segment=13, max_workers=3),
        spilled(database, rows_per_segment=10_000),  # single shard
        CachedBackend(BitmapBackend(database)),
    ]


@pytest.mark.parametrize("seed", range(6))
class TestBackendEquivalence:
    def test_item_supports_match(self, seed):
        database = random_database(seed)
        oracle, *others = backends_under_test(database)
        expected = oracle.item_supports()
        for backend in others:
            np.testing.assert_array_equal(
                backend.item_supports(), expected, err_msg=repr(backend)
            )

    def test_pairwise_supports_match(self, seed):
        database = random_database(seed)
        rng = np.random.default_rng(seed + 100)
        pool = sorted(
            rng.choice(database.num_items, size=6, replace=False)
        )
        oracle, *others = backends_under_test(database)
        expected = oracle.pairwise_supports(pool)
        assert len(expected) == 15  # all (6 choose 2) pairs present
        for backend in others:
            assert backend.pairwise_supports(pool) == expected, repr(
                backend
            )

    def test_conjunction_supports_match(self, seed):
        database = random_database(seed)
        rng = np.random.default_rng(seed + 200)
        oracle, *others = backends_under_test(database)
        itemsets = [
            sorted(rng.choice(database.num_items, size=size,
                              replace=False))
            for size in (1, 2, 3, 5)
        ] + [()]  # the empty itemset has support N
        for itemset in itemsets:
            expected = oracle.conjunction_support(itemset)
            for backend in others:
                assert (
                    backend.conjunction_support(itemset) == expected
                ), (repr(backend), itemset)

    def test_bin_counts_match(self, seed):
        database = random_database(seed)
        rng = np.random.default_rng(seed + 300)
        oracle, *others = backends_under_test(database)
        for length in (1, 3, 6):
            basis = [
                int(item)
                for item in rng.choice(
                    database.num_items, size=length, replace=False
                )
            ]
            expected = oracle.bin_counts(basis)
            assert expected.sum() == database.num_transactions
            for backend in others:
                np.testing.assert_array_equal(
                    backend.bin_counts(basis),
                    expected,
                    err_msg=f"{backend!r} basis={basis}",
                )

    def test_top_k_matches_oracle_supports(self, seed):
        database = random_database(seed)
        oracle, *others = backends_under_test(database)
        for backend in others:
            top = backend.top_k(10)
            assert len(top) == 10
            for itemset, support in top:
                assert (
                    oracle.conjunction_support(itemset) == support
                ), repr(backend)


class TestEdgeCases:
    def test_empty_database(self):
        database = TransactionDatabase([], num_items=4)
        for backend in backends_under_test(database):
            assert backend.item_supports().tolist() == [0, 0, 0, 0]
            assert backend.conjunction_support((0, 1)) == 0
            assert backend.conjunction_support(()) == 0
            np.testing.assert_array_equal(
                backend.bin_counts((0, 2)), np.zeros(4, dtype=np.int64)
            )

    def test_all_empty_transactions(self):
        database = TransactionDatabase([(), (), ()], num_items=3)
        for backend in backends_under_test(database):
            assert backend.conjunction_support(()) == 3
            bins = backend.bin_counts((0, 1))
            assert bins[0] == 3 and bins.sum() == 3

    def test_pairwise_on_minimal_pool(self):
        database = random_database(1)
        for backend in backends_under_test(database):
            assert backend.pairwise_supports((3,)) == {}

    def test_sharded_shard_partitioning(self):
        database = random_database(2, num_transactions=25)
        backend = spilled(database, rows_per_segment=10)
        assert backend.num_shards == 3
        assert backend.num_transactions == 25

    def test_sharded_rejects_bad_params(self):
        database = random_database(3)
        with pytest.raises(ValidationError):
            spilled(database, rows_per_segment=0)
        with pytest.raises(ValidationError):
            spilled(database, max_workers=0)


class TestProtocolSurface:
    def test_no_backend_answers_deleted_primitives(self):
        # Lattice extension is the miners' own bitmap sweep, and the
        # frequency helpers had no caller; no backend keeps them.
        database = random_database(3)
        backends = backends_under_test(database)
        backends.append(QueryCountingBackend(BitmapBackend(database)))
        for backend in backends:
            for name in ("extension_supports", "frequency", "supports"):
                assert not hasattr(backend, name), (repr(backend), name)
            backend.close()


class TestResolution:
    def test_as_backend_wraps_database(self):
        database = random_database(4)
        backend = as_backend(database)
        assert isinstance(backend, BitmapBackend)
        assert backend.database is database

    def test_as_backend_passes_backend_through(self):
        backend = NaiveBackend(random_database(4))
        assert as_backend(backend) is backend

    def test_resolve_rejects_mismatched_database(self):
        first = random_database(5)
        second = random_database(6)
        with pytest.raises(ValidationError):
            resolve_backend(first, BitmapBackend(second))

    def test_resolve_accepts_matching_pair(self):
        database = random_database(5)
        backend = BitmapBackend(database)
        assert resolve_backend(database, backend) is backend

    def test_as_backend_rejects_garbage(self):
        with pytest.raises(ValidationError):
            as_backend([[0, 1], [2]])

    def test_database_of_unwraps_backends(self):
        database = random_database(7)
        assert database_of(database) is database
        assert database_of(BitmapBackend(database)) is database
        with pytest.raises(ValidationError):
            database_of(42)


class TestBinKernelGuard:
    def test_guard_and_message_are_aligned(self):
        database = random_database(8, num_items=30)
        basis = list(range(MAX_BIN_BASIS_LENGTH + 1))
        with pytest.raises(ValidationError) as excinfo:
            bin_counts_for_items(database, basis)
        message = str(excinfo.value)
        assert str(MAX_BIN_BASIS_LENGTH) in message
        assert str(DEFAULT_MAX_BASIS_LENGTH) in message

    def test_constant_is_shared_with_core(self):
        from repro.core.basis import (
            DEFAULT_MAX_BASIS_LENGTH as core_constant,
        )

        assert core_constant == DEFAULT_MAX_BASIS_LENGTH == 12
        assert MAX_BIN_BASIS_LENGTH >= DEFAULT_MAX_BASIS_LENGTH


class TestBatchedPrimitives:
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_primitives_match_scalar_loops(self, seed):
        database = random_database(seed + 20, num_transactions=60,
                                   num_items=16)
        rng = np.random.default_rng(seed)
        itemsets = [
            tuple(
                sorted(
                    int(item)
                    for item in rng.choice(16, size=size, replace=False)
                )
            )
            for size in (1, 2, 3, 2, 1)
        ] + [()]
        bases = [
            [int(item) for item in rng.choice(16, size=size,
                                              replace=False)]
            for size in (1, 3, 5)
        ]
        oracle = NaiveBackend(database)
        expected_conjunctions = [
            oracle.conjunction_support(itemset) for itemset in itemsets
        ]
        expected_bins = [oracle.bin_counts(basis) for basis in bases]
        backends = [
            oracle,
            BitmapBackend(database),
            spilled(database, rows_per_segment=13, max_workers=2),
            CachedBackend(BitmapBackend(database)),
        ]
        for backend in backends:
            assert backend.conjunction_supports(itemsets) == (
                expected_conjunctions
            ), repr(backend)
            for got, want in zip(
                backend.bin_counts_batch(bases), expected_bins
            ):
                np.testing.assert_array_equal(
                    got, want, err_msg=repr(backend)
                )
            backend.close()

    def test_cached_batches_only_misses(self):
        database = random_database(30, num_transactions=60,
                                   num_items=16)
        backend = CachedBackend(BitmapBackend(database))
        bases = [[1, 2], [3, 4]]
        first = backend.bin_counts_batch(bases)
        info = backend.cache_info()["bin_counts"]
        assert info == {"hits": 0, "misses": 2}
        second = backend.bin_counts_batch(bases + [[1, 2]])
        info = backend.cache_info()["bin_counts"]
        assert info == {"hits": 3, "misses": 2}
        for got, want in zip(second[:2], first):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(second[2], first[0])
        # Conjunctions: repeats inside one batch count as hits, and the
        # inner backend only ever sees each distinct key once.
        supports = backend.conjunction_supports([(1,), (1,), (2, 3)])
        assert supports[0] == supports[1]
        info = backend.cache_info()["conjunction_support"]
        assert info == {"hits": 1, "misses": 2}
