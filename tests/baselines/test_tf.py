"""Tests for the TF baseline (Bhaskar et al. reimplementation)."""

import math

import numpy as np
import pytest

from repro.baselines.tf import (
    _laplace_order_statistics,
    _raise_floor_to_cap,
    _standard_laplace_ppf_log,
    tf_method,
)
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.topk import top_k_itemsets

HUGE_EPSILON = 1e7


class TestValidation:
    def test_parameters(self, dense_db):
        with pytest.raises(ValidationError):
            tf_method(dense_db, k=0, epsilon=1.0, m=1)
        with pytest.raises(ValidationError):
            tf_method(dense_db, k=1, epsilon=0.0, m=1)
        with pytest.raises(ValidationError):
            tf_method(dense_db, k=1, epsilon=1.0, m=0)
        with pytest.raises(ValidationError):
            tf_method(dense_db, k=1, epsilon=1.0, m=1, rho=0.0)
        with pytest.raises(ValidationError):
            tf_method(dense_db, k=1, epsilon=1.0, m=1, variant="x")


class TestEndToEnd:
    def test_returns_k_itemsets(self, dense_db):
        result = tf_method(dense_db, k=10, epsilon=1.0, m=2, rng=0)
        assert len(result.itemsets) == 10
        assert result.method == "tf-laplace"

    def test_em_variant(self, dense_db):
        result = tf_method(dense_db, k=10, epsilon=1.0, m=2,
                           variant="em", rng=0)
        assert len(result.itemsets) == 10
        assert result.method == "tf-em"

    def test_no_duplicate_itemsets(self, dense_db):
        result = tf_method(dense_db, k=15, epsilon=0.3, m=2, rng=1)
        assert len(result.itemset_set()) == 15

    def test_length_cap_respected(self, dense_db):
        for variant in ("laplace", "em"):
            result = tf_method(dense_db, k=10, epsilon=0.5, m=2,
                               variant=variant, rng=2)
            assert all(
                len(entry.itemset) <= 2 for entry in result.itemsets
            )

    def test_huge_epsilon_recovers_topk(self, dense_db):
        # Exact support ties make the identity of the k-th itemset
        # ambiguous; compare the multiset of true supports instead.
        truth_supports = sorted(
            support
            for _, support in top_k_itemsets(dense_db, 10, max_length=3)
        )
        for variant in ("laplace", "em"):
            result = tf_method(
                dense_db, k=10, epsilon=HUGE_EPSILON, m=3,
                variant=variant, rng=3,
            )
            selected_supports = sorted(
                dense_db.support(entry.itemset)
                for entry in result.itemsets
            )
            assert selected_supports == truth_supports

    def test_deterministic_under_seed(self, dense_db):
        first = tf_method(dense_db, k=10, epsilon=0.5, m=2, rng=7)
        second = tf_method(dense_db, k=10, epsilon=0.5, m=2, rng=7)
        assert first.itemset_set() == second.itemset_set()

    def test_small_m_misses_deep_itemsets(self, dense_db):
        # dense_db's top-15 contains size-3 itemsets; m=1 cannot
        # publish them (the paper's core criticism).
        truth = top_k_itemsets(dense_db, 15)
        deep = {i for i, _ in truth if len(i) >= 2}
        assert deep  # premise
        result = tf_method(dense_db, k=15, epsilon=HUGE_EPSILON, m=1,
                           rng=0)
        assert not (result.itemset_set() & deep)

    def test_noisy_frequencies_near_truth_at_huge_epsilon(self, dense_db):
        result = tf_method(dense_db, k=5, epsilon=HUGE_EPSILON, m=2,
                           rng=0)
        n = dense_db.num_transactions
        for entry in result.itemsets:
            true_frequency = dense_db.support(entry.itemset) / n
            assert entry.noisy_frequency == pytest.approx(
                true_frequency, abs=1e-3
            )


#: Seeded TF releases (k=5, ε=1, rng=m) on ``dense_db``, recorded when
#: phase 2 still read supports through a backend conjunction batch.
#: Phase 2 now reads ``database.support`` directly; the selection, the
#: exact supports and the noise order must all be unchanged.
TF_PINS = {
    ("laplace", 1): [
        ((0,), 0.6072009211422376),
        ((4,), 0.5840476503455151),
        ((1,), 0.583587069144726),
        ((5,), 0.5719953500282631),
        ((3,), 0.5656734249016968),
    ],
    ("laplace", 2): [
        ((0, 2), 0.5698047041895431),
        ((3, 4), 0.5568011730241573),
        ((0, 4), 0.5538640262686991),
        ((3,), 0.5426999142648774),
        ((0, 5), 0.5372031264752732),
    ],
    ("laplace", 3): [
        ((5,), 0.584639097005256),
        ((2, 5), 0.5771174991365114),
        ((1, 3), 0.5641118763344803),
        ((0, 5), 0.5572414493649221),
        ((1, 4), 0.5520704688827941),
    ],
    ("em", 1): [
        ((2,), 0.6079872148668477),
        ((0,), 0.5883034723003334),
        ((4,), 0.5871775666379234),
        ((3,), 0.5323629764775911),
        ((5,), 0.5312808224288079),
    ],
    ("em", 2): [
        ((1, 4), 0.5968656707594345),
        ((4,), 0.5942311178999884),
        ((5,), 0.5801892535935724),
        ((1,), 0.562093611736312),
        ((1, 2), 0.5088930705544915),
    ],
    ("em", 3): [
        ((2, 5), 0.5629331051754601),
        ((1, 2, 5), 0.5587520829800625),
        ((1, 3, 4), 0.5491133350424846),
        ((1, 5), 0.5417017044131412),
        ((0, 2, 4), 0.5382609330798893),
    ],
}


class TestSeededPins:
    @pytest.mark.parametrize("variant, m", sorted(TF_PINS))
    def test_release_is_bit_identical(self, dense_db, variant, m):
        result = tf_method(dense_db, k=5, epsilon=1.0, m=m,
                           variant=variant, rng=m)
        released = [
            (entry.itemset, entry.noisy_frequency)
            for entry in result.itemsets
        ]
        assert released == TF_PINS[(variant, m)]


class TestDegenerateRegime:
    def test_tiny_epsilon_still_runs(self, dense_db):
        # γ ≫ f_k: no pruning; the implicit pool dominates.  The run
        # must still return k itemsets (mostly junk — that is the
        # paper's point).
        result = tf_method(dense_db, k=20, epsilon=0.05, m=2, rng=5)
        assert len(result.itemsets) == 20

    def test_explicit_cap_engages(self, dense_db):
        result = tf_method(
            dense_db, k=10, epsilon=0.05, m=2, explicit_cap=50, rng=6
        )
        assert len(result.itemsets) == 10


class TestExplicitCandidates:
    """TF draws its selection noise in the explicit set's key order, so
    the set is every candidate above the floor, keyed in tuple order."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_apriori_in_tuple_order(self, dense_db, m):
        from repro.baselines.tf import (
            _mine_explicit,
            clear_explicit_mining_cache,
        )
        from tests.fim.apriori_reference import apriori

        clear_explicit_mining_cache()
        truncation = 0.2
        explicit = _mine_explicit(
            dense_db, m=m, truncation=truncation, explicit_cap=10**6
        )
        floor = math.ceil(truncation * dense_db.num_transactions)
        assert explicit == apriori(dense_db, floor, max_length=m)
        assert list(explicit) == sorted(explicit)
        clear_explicit_mining_cache()


class TestRaiseFloor:
    def test_no_raise_needed(self):
        supports = np.array([10, 8, 5, 1])
        assert _raise_floor_to_cap(supports, 1, 1, cap=100) == 1

    def test_raises_until_bound_fits(self):
        supports = np.array([100] * 50 + [10] * 50)
        # m=2 with 100 items → 5050 candidates > 60; with 50 → 1275;
        # the floor must rise above 10 → bound C(50,2)+50 = 1275 > 60
        # → keeps rising to exclude everything except... cap tiny.
        floor = _raise_floor_to_cap(supports, 1, 2, cap=60)
        assert floor > 10

    def test_monotone_in_cap(self):
        supports = np.arange(1, 200)
        loose = _raise_floor_to_cap(supports, 1, 2, cap=10_000)
        tight = _raise_floor_to_cap(supports, 1, 2, cap=100)
        assert tight >= loose


class TestOrderStatistics:
    def test_descending(self):
        rng = np.random.default_rng(0)
        values = _laplace_order_statistics(10_000, 0.0, 1.0, 50, rng)
        assert values == sorted(values, reverse=True)

    def test_count_limit(self):
        rng = np.random.default_rng(0)
        assert len(_laplace_order_statistics(3, 0.0, 1.0, 10, rng)) == 3
        assert len(_laplace_order_statistics(0, 0.0, 1.0, 10, rng)) == 0

    def test_max_distribution_matches_direct_sampling(self):
        # KS-style check: the sampled maximum of M=50 draws must match
        # the empirical maximum of direct sampling.
        rng = np.random.default_rng(1)
        sampled = np.array([
            _laplace_order_statistics(50, 0.0, 1.0, 1, rng)[0]
            for _ in range(4000)
        ])
        direct = np.array([
            rng.laplace(0.0, 1.0, size=50).max() for _ in range(4000)
        ])
        # Compare medians and upper quantiles.
        assert np.median(sampled) == pytest.approx(
            np.median(direct), abs=0.1
        )
        assert np.quantile(sampled, 0.9) == pytest.approx(
            np.quantile(direct, 0.9), abs=0.2
        )

    def test_huge_pool_is_finite_and_large(self):
        rng = np.random.default_rng(2)
        values = _laplace_order_statistics(10**9, 0.0, 1.0, 5, rng)
        assert all(math.isfinite(value) for value in values)
        # Max of 1e9 standard Laplace draws concentrates near
        # ln(M/2) ≈ 20.
        assert 15 < values[0] < 27

    def test_ppf_log_roundtrip(self):
        from repro.dp.laplace import laplace_cdf

        for q in (0.001, 0.3, 0.5, 0.9, 0.999999):
            z = _standard_laplace_ppf_log(math.log(q))
            assert laplace_cdf(z, 1.0) == pytest.approx(q, rel=1e-9)


class TestExplicitMiningCache:
    def test_cache_hit_returns_same_object(self, dense_db):
        from repro.baselines.tf import (
            _mine_explicit,
            clear_explicit_mining_cache,
        )

        clear_explicit_mining_cache()
        first = _mine_explicit(dense_db, m=2, truncation=0.2, explicit_cap=10**6)
        second = _mine_explicit(dense_db, m=2, truncation=0.2, explicit_cap=10**6)
        assert first is second

    def test_cache_validates_database_identity(self, dense_db, tiny_db):
        # Two different databases must never share an entry even if a
        # stale id were reused; the identity check guards this.
        from repro.baselines.tf import (
            _mine_explicit,
            clear_explicit_mining_cache,
        )

        clear_explicit_mining_cache()
        dense = _mine_explicit(dense_db, m=1, truncation=0.0, explicit_cap=10**6)
        tiny = _mine_explicit(tiny_db, m=1, truncation=0.0, explicit_cap=10**6)
        assert dense is not tiny
        singleton_supports = {s[0]: c for s, c in tiny.items() if len(s) == 1}
        assert singleton_supports[0] == tiny_db.support((0,))

    def test_cache_bounded(self, tiny_db):
        from repro.baselines import tf as tf_module

        tf_module.clear_explicit_mining_cache()
        for floor_seed in range(tf_module._EXPLICIT_MINING_CACHE_LIMIT + 5):
            # Vary m to force distinct keys against the same database.
            tf_module._EXPLICIT_MINING_CACHE[(floor_seed, 1, 1)] = (
                tiny_db,
                {},
            )
            if (
                len(tf_module._EXPLICIT_MINING_CACHE)
                > tf_module._EXPLICIT_MINING_CACHE_LIMIT
            ):
                break
        tf_module._mine_explicit(tiny_db, m=1, truncation=0.0, explicit_cap=10**6)
        assert (
            len(tf_module._EXPLICIT_MINING_CACHE)
            <= tf_module._EXPLICIT_MINING_CACHE_LIMIT
        )
        tf_module.clear_explicit_mining_cache()
