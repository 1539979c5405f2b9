"""Tests for the privacy-budget ledger (sequential composition)."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.dp.budget import PrivacyBudget
from repro.errors import BudgetExceededError, ValidationError


class TestConstruction:
    def test_positive_epsilon_required(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(-1.0)

    def test_unlimited_budget(self):
        budget = PrivacyBudget.unlimited()
        budget.spend(1e9, "huge")
        assert budget.remaining == math.inf


class TestSpending:
    def test_spend_records_entry(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.25, "step1")
        assert budget.spent == pytest.approx(0.25)
        assert budget.remaining == pytest.approx(0.75)
        assert budget.entries[0].label == "step1"

    def test_spend_returns_amount(self):
        budget = PrivacyBudget(1.0)
        assert budget.spend(0.5) == 0.5

    def test_overdraft_raises(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.9)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.spend(0.2)
        assert excinfo.value.requested == pytest.approx(0.2)
        assert excinfo.value.remaining == pytest.approx(0.1)

    def test_overdraft_leaves_ledger_unchanged(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.9)
        with pytest.raises(BudgetExceededError):
            budget.spend(0.5)
        assert budget.spent == pytest.approx(0.9)

    def test_zero_spend_rejected(self):
        budget = PrivacyBudget(1.0)
        with pytest.raises(ValidationError):
            budget.spend(0.0)

    def test_exact_exhaustion_allowed(self):
        budget = PrivacyBudget(1.0)
        budget.spend(0.5)
        budget.spend(0.5)
        assert budget.remaining == pytest.approx(0.0)

    def test_float_rounding_tolerated(self):
        # 0.1 + 0.4 + 0.5 has float error; must still fit in ε = 1.
        budget = PrivacyBudget(1.0)
        for fraction in (0.1, 0.4, 0.5):
            budget.spend(fraction)
        budget.assert_within_budget()

    def test_spend_all_consumes_remainder(self):
        budget = PrivacyBudget(2.0)
        budget.spend(0.75)
        amount = budget.spend_all("rest")
        assert amount == pytest.approx(1.25)
        assert budget.remaining == pytest.approx(0.0)

    def test_spend_all_on_empty_budget_raises(self):
        budget = PrivacyBudget(1.0)
        budget.spend(1.0)
        with pytest.raises(BudgetExceededError):
            budget.spend_all()


class TestOneAdmissionInequality:
    """The per-release ledger and the service's per-tenant journal
    admit exactly the same spends: one inequality, one tolerance."""

    @pytest.mark.parametrize(
        "epsilon, spent, limit, admitted",
        [
            (0.2, 0.1, 0.3, True),  # 0.3 - 0.1 = 0.19999999999999998
            (0.3, 0.0, 0.3, True),  # exact fit
            (0.5, 0.5, 1.0, True),
            (1.0 + 5e-10, 0.0, 1.0, True),  # inside the tolerance
            (1.0 + 2e-9, 0.0, 1.0, False),  # just past it
            (0.6, 0.5, 1.0, False),
            (1e12, 3.0, math.inf, True),  # an infinite limit
        ],
    )
    def test_budget_and_journal_agree(self, epsilon, spent, limit, admitted):
        from repro.store.ledger import LedgerJournal

        budget = PrivacyBudget(limit)
        journal = LedgerJournal(None)
        if spent:
            budget.spend(spent)
            journal.debit("t", spent)
        assert journal.affords("t", epsilon, limit) is admitted
        for spend in (
            lambda: budget.spend(epsilon),
            lambda: journal.debit_within_limit("t", epsilon, limit),
        ):
            if admitted:
                spend()
            else:
                with pytest.raises(BudgetExceededError):
                    spend()


class TestSplit:
    def test_paper_alphas(self):
        budget = PrivacyBudget(2.0)
        amounts = budget.split((0.1, 0.4, 0.5))
        assert amounts == pytest.approx([0.2, 0.8, 1.0])

    def test_split_does_not_spend(self):
        budget = PrivacyBudget(1.0)
        budget.split((0.5, 0.5))
        assert budget.spent == 0.0

    def test_split_rejects_oversubscription(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(1.0).split((0.6, 0.6))

    def test_split_rejects_nonpositive_fraction(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(1.0).split((0.5, 0.0))

    def test_split_error_is_structured(self):
        # A zero fraction must answer the structured error naming the
        # offending entry, never slip through to a degenerate ε = 0
        # stage budget.
        from repro.errors import InvalidFractionsError

        with pytest.raises(InvalidFractionsError) as excinfo:
            PrivacyBudget(1.0).split((0.5, 0.0, 0.5))
        assert excinfo.value.fractions == (0.5, 0.0, 0.5)
        assert "fractions[1]" in str(excinfo.value)

    def test_split_rejects_nan_and_inf(self):
        from repro.errors import InvalidFractionsError

        with pytest.raises(InvalidFractionsError):
            PrivacyBudget(1.0).split((float("nan"), 0.5))
        with pytest.raises(InvalidFractionsError):
            PrivacyBudget(1.0).split((float("inf"),))

    def test_split_rejects_empty(self):
        with pytest.raises(ValidationError):
            PrivacyBudget(1.0).split(())

    def test_partial_split_allowed(self):
        # Fractions may sum to < 1 (caller keeps the rest).
        amounts = PrivacyBudget(1.0).split((0.3,))
        assert amounts == pytest.approx([0.3])


class TestCompositionProperty:
    @given(
        epsilon=st.floats(min_value=0.01, max_value=100.0),
        fractions=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=1,
            max_size=8,
        ),
    )
    def test_spending_split_amounts_never_overdraws(self, epsilon, fractions):
        total = sum(fractions)
        normalized = [fraction / total for fraction in fractions]
        budget = PrivacyBudget(epsilon)
        for amount in budget.split(normalized):
            budget.spend(amount)
        budget.assert_within_budget()
        assert budget.spent == pytest.approx(epsilon, rel=1e-6)
