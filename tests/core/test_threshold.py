"""Tests for the θ-threshold frontend."""

import pytest

from repro.core.threshold import (
    privbasis_threshold,
    select_k_for_threshold,
)
from repro.errors import ValidationError
from repro.fim.topk import frequent_itemsets, top_k_itemsets

HUGE_EPSILON = 1e7


class TestSelectK:
    def test_huge_epsilon_recovers_exact_k(self, dense_db):
        n = dense_db.num_transactions
        theta = 0.5
        exact_k = sum(
            1
            for _, count in top_k_itemsets(dense_db, 512)
            if count / n >= theta
        )
        selected = select_k_for_threshold(
            dense_db, theta, HUGE_EPSILON, rng=1
        )
        # The EM picks the k whose f_k is closest to theta; exact_k or
        # a tie-neighbour.
        assert abs(selected - exact_k) <= 1

    def test_respects_max_k(self, dense_db):
        selected = select_k_for_threshold(
            dense_db, 0.01, HUGE_EPSILON, max_k=7, rng=1
        )
        assert 1 <= selected <= 7

    def test_high_theta_gives_small_k(self, dense_db):
        selected = select_k_for_threshold(
            dense_db, 0.99, HUGE_EPSILON, rng=1
        )
        low = select_k_for_threshold(
            dense_db, 0.30, HUGE_EPSILON, rng=1
        )
        assert selected <= low

    def test_validation(self, dense_db):
        with pytest.raises(ValidationError):
            select_k_for_threshold(dense_db, 0.0, 1.0)
        with pytest.raises(ValidationError):
            select_k_for_threshold(dense_db, 1.5, 1.0)
        with pytest.raises(ValidationError):
            select_k_for_threshold(dense_db, 0.5, -1.0)
        with pytest.raises(ValidationError):
            select_k_for_threshold(dense_db, 0.5, 1.0, max_k=0)

    def test_deterministic_under_seed(self, dense_db):
        first = select_k_for_threshold(dense_db, 0.4, 1.0, rng=9)
        second = select_k_for_threshold(dense_db, 0.4, 1.0, rng=9)
        assert first == second


class TestPrivBasisThreshold:
    def test_huge_epsilon_recovers_theta_frequent_sets(self, dense_db):
        n = dense_db.num_transactions
        theta = 0.5
        release = privbasis_threshold(
            dense_db, theta, HUGE_EPSILON, rng=3
        )
        exact = {
            itemset
            for itemset, count in frequent_itemsets(
                dense_db, min_support=int(theta * n)
            ).items()
            if count / n >= theta
        }
        released = {entry.itemset for entry in release.itemsets}
        missing = exact - released
        spurious = released - exact
        # Near-exact at huge epsilon (k selection may be off by one).
        assert len(missing) <= max(1, len(exact) // 10)
        assert len(spurious) <= max(1, len(exact) // 10)

    def test_all_noisy_frequencies_above_theta(self, dense_db):
        release = privbasis_threshold(dense_db, 0.4, 2.0, rng=3)
        for entry in release.itemsets:
            assert entry.noisy_frequency >= 0.4

    def test_drop_below_threshold_false_keeps_topk(self, dense_db):
        filtered = privbasis_threshold(dense_db, 0.4, 2.0, rng=3)
        unfiltered = privbasis_threshold(
            dense_db, 0.4, 2.0, drop_below_threshold=False, rng=3
        )
        # Same seed → same pipeline; only the final filter differs.
        assert unfiltered.k == filtered.k
        assert len(unfiltered.itemsets) >= len(filtered.itemsets)
        # The release never exceeds k (and may be smaller when the
        # candidate set C(B) is small, as on this tiny database).
        assert len(unfiltered.itemsets) <= unfiltered.k

    def test_method_label_and_budget(self, dense_db):
        release = privbasis_threshold(dense_db, 0.5, 1.0, rng=3)
        assert release.method == "privbasis-threshold"
        assert release.epsilon == 1.0
        # The inner PrivBasis ledger accounts the mining fraction.
        assert release.budget is not None
        assert release.budget.epsilon == pytest.approx(0.9)

    def test_k_fraction_validation(self, dense_db):
        with pytest.raises(ValidationError):
            privbasis_threshold(dense_db, 0.5, 1.0, k_fraction=0.0)
        with pytest.raises(ValidationError):
            privbasis_threshold(dense_db, 0.5, 1.0, k_fraction=1.0)

    def test_kwargs_forwarded(self, dense_db):
        release = privbasis_threshold(
            dense_db, 0.5, HUGE_EPSILON, eta=1.2, rng=3
        )
        assert release.itemsets

    def test_deterministic_under_seed(self, dense_db):
        first = privbasis_threshold(dense_db, 0.5, 1.0, rng=11)
        second = privbasis_threshold(dense_db, 0.5, 1.0, rng=11)
        assert [e.itemset for e in first.itemsets] == [
            e.itemset for e in second.itemsets
        ]
