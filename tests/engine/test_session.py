"""Session/cache-layer tests.

Pin the two properties that make :class:`PrivBasisSession` a serving
layer: (1) results are *identical* to a direct ``privbasis()`` call
with the same seed — caching never changes outputs; (2) warm releases
actually reuse state — second identical release rebuilds no bitmap
pools and hits the bin-histogram/top-k caches, while a different basis
misses the bin cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.privbasis import privbasis
from repro.datasets.transactions import TransactionDatabase
from repro.engine import (
    BitmapBackend,
    CachedBackend,
    PrivBasisSession,
)
from repro.errors import ValidationError
from tests.engine.spill import spilled


@pytest.fixture()
def database() -> TransactionDatabase:
    """A correlated database with a planted frequent block."""
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(300):
        row = set()
        if rng.random() < 0.6:
            row.update(i for i in range(5) if rng.random() < 0.9)
        row.update(
            int(item)
            for item in rng.choice(20, size=3)
        )
        rows.append(sorted(row))
    return TransactionDatabase(rows, num_items=20)


class TestReleaseSemantics:
    def test_release_matches_direct_privbasis(self, database):
        session = PrivBasisSession(database)
        via_session = session.release(k=10, epsilon=1.0, rng=42)
        direct = privbasis(database, k=10, epsilon=1.0, rng=42)
        assert [entry.itemset for entry in via_session.itemsets] == [
            entry.itemset for entry in direct.itemsets
        ]
        assert via_session.basis_set.bases == direct.basis_set.bases

    def test_warm_release_matches_direct_privbasis(self, database):
        # Even after the caches are hot, outputs equal a cold call.
        session = PrivBasisSession(database)
        session.release(k=10, epsilon=1.0, rng=42)
        warm = session.release(k=10, epsilon=1.0, rng=43)
        direct = privbasis(database, k=10, epsilon=1.0, rng=43)
        assert [entry.itemset for entry in warm.itemsets] == [
            entry.itemset for entry in direct.itemsets
        ]

    def test_sharded_backend_session(self, database):
        backend = spilled(database, rows_per_segment=64, max_workers=2)
        session = PrivBasisSession(backend)
        result = session.release(k=8, epsilon=1.0, rng=7)
        direct = privbasis(database, k=8, epsilon=1.0, rng=7)
        assert [entry.itemset for entry in result.itemsets] == [
            entry.itemset for entry in direct.itemsets
        ]

    def test_fresh_noise_without_explicit_seed(self, database):
        session = PrivBasisSession(database, rng=11)
        first = session.release(k=10, epsilon=0.5)
        second = session.release(k=10, epsilon=0.5)
        # Same workload, fresh draws: the noisy frequencies differ.
        assert [e.noisy_frequency for e in first.itemsets] != [
            e.noisy_frequency for e in second.itemsets
        ]


class TestCacheBehavior:
    def test_second_release_rebuilds_no_bitmaps(self, database):
        inner = BitmapBackend(database)
        session = PrivBasisSession(database, backend=inner)
        session.release(k=10, epsilon=1.0, rng=3)
        pools_after_first = inner.pools_built
        misses_after_first = {
            kind: counters["misses"]
            for kind, counters in session.cache_info().items()
        }
        session.release(k=10, epsilon=1.0, rng=3)
        # Identical seed => identical bases => every exact query hits.
        assert inner.pools_built == pools_after_first
        for kind, counters in session.cache_info().items():
            assert counters["misses"] == misses_after_first[kind], kind
        assert session.cache_info()["bin_counts"]["hits"] >= 1
        assert session.cache_info()["top_k"]["hits"] >= 1
        assert session.cache_info()["item_supports"]["hits"] >= 1

    def test_bin_cache_hits_and_misses_by_basis(self, database):
        backend = CachedBackend(BitmapBackend(database))
        first = backend.bin_counts((0, 1, 2))
        again = backend.bin_counts((0, 1, 2))
        np.testing.assert_array_equal(first, again)
        backend.bin_counts((0, 1, 3))  # different basis: miss
        info = backend.cache_info()["bin_counts"]
        assert info == {"hits": 1, "misses": 2}

    def test_cached_arrays_are_isolated_copies(self, database):
        backend = CachedBackend(BitmapBackend(database))
        bins = backend.bin_counts((0, 1))
        bins[0] = -999
        assert backend.bin_counts((0, 1))[0] != -999
        supports = backend.item_supports()
        supports[0] = -999
        assert backend.item_supports()[0] != -999

    def test_clear_drops_memoized_state(self, database):
        backend = CachedBackend(BitmapBackend(database))
        backend.bin_counts((0, 1))
        backend.clear()
        backend.bin_counts((0, 1))
        assert backend.cache_info()["bin_counts"]["misses"] == 2

    def test_caches_are_bounded(self, database):
        backend = CachedBackend(
            BitmapBackend(database), cache_limits={"bin_counts": 2}
        )
        for item in range(4):
            backend.bin_counts((item,))
        assert len(backend._bin_cache) <= 2
        # The newest entry survived and still hits.
        backend.bin_counts((3,))
        assert backend.cache_info()["bin_counts"]["hits"] == 1

    def test_cached_top_k_is_isolated_copy(self, database):
        backend = CachedBackend(BitmapBackend(database))
        top = backend.top_k(5)
        top.clear()
        assert len(backend.top_k(5)) == 5

    def test_registry_top_k_guard_against_id_reuse(self):
        # Transient databases can land on a recycled id(); the memo
        # must never serve another database's itemsets.
        import gc

        import numpy as np

        from repro.datasets.registry import cached_top_k, clear_caches

        clear_caches()
        try:
            for seed in range(40):
                rng = np.random.default_rng(seed)
                rows = [
                    np.flatnonzero(rng.random(10) < 0.4)
                    for _ in range(50)
                ]
                transient = TransactionDatabase(rows, num_items=10)
                for itemset, support in cached_top_k(transient, 5):
                    assert transient.support(itemset) == support, seed
                del transient
                gc.collect()
        finally:
            clear_caches()


class TestBatchAllOrNothing:
    """A batch or release that fails validation runs nothing: no
    backend query, so no noise is drawn and nothing is published."""

    def test_session_keeps_no_ledger(self, database):
        # The service's per-tenant journal (or a caller's own
        # PrivacyBudget) owns ε accounting; the session takes no limit.
        with pytest.raises(TypeError):
            PrivBasisSession(database, epsilon_limit=1.0)

    def test_batch_validates_before_any_release(self, database):
        # A bad epsilon or k anywhere in the batch must fail the whole
        # batch before any release runs (all-or-nothing contract).
        session = PrivBasisSession(database)
        with pytest.raises(ValidationError):
            session.release_batch([(5, 1.0), (5, -0.5)])
        with pytest.raises(ValidationError):
            session.release_batch([(5, 0.5), (0, 0.5)])
        assert session.cache_info() == {}

    @pytest.mark.parametrize(
        "request_",
        [{"k": 5, "epsilon": "abc"}, (5, None), (2.7, 0.5), (True, 0.5),
         (5, True), (5, 10**400)],
    )
    def test_batch_rejects_unconvertible_requests(self, database, request_):
        session = PrivBasisSession(database)
        with pytest.raises(ValidationError):
            session.release_batch([(5, 0.5), request_])
        assert session.cache_info() == {}

    @pytest.mark.parametrize("k", [2.7, True])
    def test_release_never_truncates_k(self, database, k):
        session = PrivBasisSession(database)
        with pytest.raises(ValidationError):
            session.release(k=k, epsilon=0.1, rng=1)
        assert session.cache_info() == {}


class TestBatch:
    def test_batch_mixed_request_shapes(self, database):
        session = PrivBasisSession(database, rng=9)
        results = session.release_batch(
            [
                (5, 0.5),
                {"k": 8, "epsilon": 1.0, "noise": "geometric"},
            ]
        )
        assert [result.k for result in results] == [5, 8]
        assert [result.epsilon for result in results] == [0.5, 1.0]

    def test_batch_empty(self, database):
        session = PrivBasisSession(database)
        assert session.release_batch([]) == []

    def test_batch_rejects_malformed_mapping(self, database):
        session = PrivBasisSession(database)
        with pytest.raises(ValidationError):
            session.release_batch([{"k": 5}])
