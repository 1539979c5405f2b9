"""Tests for the full PrivBasis pipeline (paper Algorithm 3)."""

import pytest

from repro.core.privbasis import default_eta, privbasis
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.topk import top_k_itemsets
from repro.pipeline import pair_budget_size

HUGE_EPSILON = 1e9


class TestValidation:
    def test_k_positive(self, dense_db):
        with pytest.raises(ValidationError):
            privbasis(dense_db, k=0, epsilon=1.0)

    def test_alphas_must_sum_to_one(self, dense_db):
        with pytest.raises(ValidationError):
            privbasis(dense_db, k=5, epsilon=1.0,
                      alphas=(0.1, 0.1, 0.1))

    def test_alphas_length(self, dense_db):
        with pytest.raises(ValidationError):
            privbasis(dense_db, k=5, epsilon=1.0, alphas=(0.5, 0.5))

    def test_epsilon_positive(self, dense_db):
        with pytest.raises(ValidationError):
            privbasis(dense_db, k=5, epsilon=0.0)


class TestPipelineInvariants:
    def test_returns_k_itemsets(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=1.0, rng=0)
        assert len(result.itemsets) == 10

    def test_budget_fully_spent_and_not_exceeded(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=0.7, rng=0)
        assert result.budget.spent == pytest.approx(0.7, rel=1e-9)
        result.budget.assert_within_budget()

    def test_budget_ledger_labels(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=1.0, rng=0)
        labels = [entry.label for entry in result.budget.entries]
        assert labels[0] == "get_lambda"
        assert labels[-1] == "basis_freq"

    def test_deterministic_under_seed(self, dense_db):
        first = privbasis(dense_db, k=10, epsilon=0.5, rng=123)
        second = privbasis(dense_db, k=10, epsilon=0.5, rng=123)
        assert first.itemset_set() == second.itemset_set()
        assert first.lam == second.lam

    def test_different_seeds_can_differ(self, dense_db):
        results = {
            frozenset(privbasis(dense_db, k=10, epsilon=0.1,
                                rng=seed).itemset_set())
            for seed in range(6)
        }
        assert len(results) > 1  # at ε = 0.1 the output is noisy

    def test_published_itemsets_covered_by_basis(self, dense_db):
        result = privbasis(dense_db, k=12, epsilon=1.0, rng=4)
        for entry in result.itemsets:
            assert result.basis_set.covers(entry.itemset)

    def test_diagnostics_populated(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=1.0, rng=0)
        assert result.lam >= 1
        assert result.method == "privbasis"
        assert len(result.frequent_items) == min(
            result.lam, dense_db.num_items
        )


class TestAccuracyAtHighBudget:
    def test_single_basis_branch_recovers_topk(self, dense_db):
        # dense_db has a 6-item block: λ ≤ 12 → single basis; with a
        # huge budget the exact top-k must be recovered.
        result = privbasis(dense_db, k=15, epsilon=HUGE_EPSILON, rng=0)
        assert result.used_single_basis
        truth = {
            itemset for itemset, _ in top_k_itemsets(dense_db, 15)
        }
        assert result.itemset_set() == truth

    def test_multi_basis_branch_high_accuracy(self, small_db):
        # small_db's top-k spreads over > 12 items → pairs branch.
        result = privbasis(
            small_db, k=25, epsilon=HUGE_EPSILON, rng=1,
            single_basis_lambda=4,
        )
        assert not result.used_single_basis
        truth = {
            itemset for itemset, _ in top_k_itemsets(small_db, 25)
        }
        missing = truth - result.itemset_set()
        # The basis over-approximates maximal itemsets from items and
        # pairs only; with zero noise nearly everything is recovered.
        assert len(missing) <= 3

    def test_basis_length_cap_enforced(self, small_db):
        result = privbasis(
            small_db, k=25, epsilon=1.0, rng=2, single_basis_lambda=4,
            max_basis_length=6,
        )
        assert result.basis_set.length <= 6


class TestForcedBranches:
    def test_forced_pairs_branch_produces_multi_bases(self, dense_db):
        result = privbasis(
            dense_db, k=10, epsilon=HUGE_EPSILON, rng=0,
            single_basis_lambda=1,
        )
        assert result.basis_set.width >= 1
        assert result.frequent_pairs  # pairs step actually ran

    def test_eta_default_rule(self):
        assert default_eta(50) == 1.2
        assert default_eta(100) == 1.2
        assert default_eta(150) == 1.1


class TestPairBudgetHeuristic:
    def test_paper_worked_example(self):
        # Paper Section 4.4: pumsb-star, k = 100, η = 1.2, λ = 20
        # → λ₂ = 44.
        assert pair_budget_size(20, 100, 1.2) == 44

    def test_no_pairs_when_lambda_exceeds_eta_k(self):
        assert pair_budget_size(130, 100, 1.2) == 0

    def test_undamped_when_ratio_small(self):
        # λ₂' = 1.2·100 − 110 = 10 < λ → no damping.
        assert pair_budget_size(110, 100, 1.2) == 10


class TestArbitraryBudgetSplits:
    """The pipeline must hold ε-accounting for any valid α-split."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        raw=st.tuples(
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
        epsilon=st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_spends_exactly_epsilon_for_any_split(
        self, dense_db, raw, epsilon
    ):
        import pytest as _pytest

        from repro.core.privbasis import privbasis

        total = sum(raw)
        alphas = tuple(value / total for value in raw)
        # Guard the normalization against float drift.
        alphas = (alphas[0], alphas[1], 1.0 - alphas[0] - alphas[1])
        release = privbasis(
            dense_db, k=5, epsilon=epsilon, alphas=alphas, rng=3
        )
        assert release.budget.spent == _pytest.approx(epsilon)
        assert len(release.itemsets) >= 1
