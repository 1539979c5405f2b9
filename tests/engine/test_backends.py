"""Backend-equivalence property tests.

Every :class:`~repro.engine.backend.CountingBackend` must return
*identical exact counts* — the DP mechanisms downstream are then
backend-independent by construction.  These tests pin
:class:`BitmapBackend` and :class:`ShardedBackend` (spilled stores of
several shard sizes, several thread-pool widths) against the pure-Python
:class:`NaiveBackend` oracle on random small databases, plus the edge
cases (empty transactions, empty pools, the empty basis) and the
batched primitives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    CachedBackend,
    CountingBackend,
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
        assert expected.shape == (6, 6)
        for backend in others:
            np.testing.assert_array_equal(
                backend.pairwise_supports(pool), expected,
                err_msg=repr(backend),
            )

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
        rows = [set(transaction) for transaction in database]
        _, *others = backends_under_test(database)
        for backend in others:
            top = backend.top_k(10)
            assert len(top) == 10
            for itemset, support in top:
                expected = sum(1 for row in rows if set(itemset) <= row)
                assert expected == support, repr(backend)


class TestEdgeCases:
    def test_empty_database(self):
        database = TransactionDatabase([], num_items=4)
        for backend in backends_under_test(database):
            assert backend.item_supports().tolist() == [0, 0, 0, 0]
            np.testing.assert_array_equal(
                backend.pairwise_supports((0, 1)), np.zeros((2, 2))
            )
            np.testing.assert_array_equal(
                backend.bin_counts((0, 2)), np.zeros(4, dtype=np.int64)
            )

    def test_all_empty_transactions(self):
        database = TransactionDatabase([(), (), ()], num_items=3)
        for backend in backends_under_test(database):
            np.testing.assert_array_equal(backend.bin_counts(()), [3])
            bins = backend.bin_counts((0, 1))
            assert bins[0] == 3 and bins.sum() == 3

    def test_pairwise_on_minimal_pool(self):
        database = random_database(1)
        for backend in backends_under_test(database):
            np.testing.assert_array_equal(
                backend.pairwise_supports((3,)), np.zeros((1, 1))
            )

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


class TestPairMatrixContract:
    """``pairwise_supports`` is a ``(P, P)`` int64 matrix over the
    sorted pool whose upper triangle holds the pair supports."""

    @pytest.mark.parametrize(
        "pool",
        [(), (5,), (9, 2), (11, 0, 7, 3, 12, 1, 8), tuple(range(14))],
        ids=["empty", "one", "two", "seven", "all"],
    )
    def test_matrix_matches_oracle(self, pool):
        database = random_database(4, num_transactions=150)
        oracle, *others = backends_under_test(database)
        expected = oracle.pairwise_supports(pool)
        ordered = sorted(pool)
        assert expected.shape == (len(pool), len(pool))
        for first, second in zip(*np.triu_indices(len(pool), 1)):
            assert expected[first, second] == database.support(
                (ordered[first], ordered[second])
            )
        for backend in others:
            answer = backend.pairwise_supports(pool)
            assert answer.dtype == np.int64, repr(backend)
            assert np.array_equal(answer, expected), repr(backend)

    def test_diagonal_and_lower_triangle_are_zero(self):
        # Every row holds every item, so a filled diagonal or lower
        # entry would read N rather than 0.
        database = TransactionDatabase([tuple(range(6))] * 70, num_items=6)
        expected = np.triu(np.full((6, 6), 70), 1)
        for backend in backends_under_test(database):
            assert np.array_equal(
                backend.pairwise_supports(range(6)), expected
            ), repr(backend)

    @pytest.mark.parametrize("start, step", [(37, 29), (64, 27), (100, 1)])
    def test_matrix_after_extend_matches_cold_oracle(self, start, step):
        # Row counts off the 64-bit word boundary: a warm bitmap pool
        # must keep its padding bits zero as it grows.
        database = random_database(5, num_transactions=start + 3 * step)
        pool = (0, 2, 3, 5, 8, 13)
        backends = backends_under_test(database.slice(0, start))
        for backend in backends:
            backend.pairwise_supports(pool)
        for stop in range(start + step, database.num_transactions + 1,
                          step):
            delta = database.slice(stop - step, stop)
            expected = NaiveBackend(database.slice(0, stop))
            want = expected.pairwise_supports(pool)
            for backend in backends:
                backend.extend(delta)
                assert backend.num_transactions == stop
                assert np.array_equal(
                    backend.pairwise_supports(pool), want
                ), (repr(backend), stop)

    def test_cached_answer_is_a_copy(self):
        database = random_database(6)
        backend = CachedBackend(BitmapBackend(database))
        first = backend.pairwise_supports((1, 4, 9))
        expected = first.copy()
        first[0, 1] += 1000
        first[2, 0] = -1
        assert np.array_equal(backend.pairwise_supports((9, 4, 1)), expected)
        assert backend.cache_info()["pairwise_supports"] == {
            "hits": 1, "misses": 1,
        }


class TestProtocolSurface:
    def test_abstract_primitives_are_what_a_release_reads(self):
        assert CountingBackend.__abstractmethods__ == {
            "database",
            "extend",
            "item_supports",
            "pairwise_supports",
            "bin_counts_batch",
        }

    def test_no_backend_answers_deleted_primitives(self):
        # Lattice extension is the miners' own bitmap sweep, the
        # frequency helpers had no caller, and only the TF baseline
        # read itemset supports (now straight from the database).
        database = random_database(3)
        deleted = (
            "extension_supports",
            "frequency",
            "supports",
            "conjunction_support",
            "conjunction_supports",
        )
        for backend in backends_under_test(database):
            for name in deleted:
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
        bases = [
            [int(item) for item in rng.choice(16, size=size,
                                              replace=False)]
            for size in (1, 3, 5)
        ]
        oracle = NaiveBackend(database)
        expected_bins = [oracle.bin_counts(basis) for basis in bases]
        backends = [
            oracle,
            BitmapBackend(database),
            spilled(database, rows_per_segment=13, max_workers=2),
            CachedBackend(BitmapBackend(database)),
        ]
        for backend in backends:
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
        # The one-basis form shares the batch's memo and counters.
        np.testing.assert_array_equal(backend.bin_counts([3, 4]), first[1])
        info = backend.cache_info()["bin_counts"]
        assert info == {"hits": 4, "misses": 2}
