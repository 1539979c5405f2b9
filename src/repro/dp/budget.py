"""Privacy-budget accounting under sequential composition.

Differential privacy composes additively: running mechanisms that are
ε₁-, ε₂-, …-DP on the same data yields a (Σεᵢ)-DP pipeline (paper
Section 2.1).  :class:`PrivacyBudget` makes that bookkeeping explicit —
each mechanism invocation *spends* part of the budget, and overdrafts
raise :class:`~repro.errors.BudgetExceededError` instead of silently
weakening the guarantee.

The PrivBasis pipeline (paper Algorithm 3) splits its budget as
α₁ε / α₂ε / α₃ε across its steps; :meth:`PrivacyBudget.split` expresses
exactly that pattern.  Each release runs against its own
:class:`PrivacyBudget`; a service tenant's lifetime spend across
releases is kept by :class:`repro.store.ledger.LedgerJournal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import (
    BudgetExceededError,
    InvalidFractionsError,
    ValidationError,
)

#: Relative tolerance of every overdraft check — this ledger's and the
#: service's per-tenant admission in :mod:`repro.store.ledger` — so
#: exact splits like ``0.1 + 0.4 + 0.5`` and float wobble like
#: ``0.3 - 0.1`` never refuse a spend that fits.
_REL_TOL = 1e-9


def _admits(epsilon: float, spent: float, limit: float) -> bool:
    """The one admission inequality: ``epsilon`` fits what ``limit``
    leaves after ``spent``, up to a relative tolerance of the limit.
    An infinite limit admits everything."""
    return epsilon <= max(0.0, limit - spent) + _REL_TOL * limit


@dataclass(frozen=True)
class BudgetEntry:
    """A single recorded expenditure: ``(label, epsilon)``."""

    label: str
    epsilon: float


@dataclass
class PrivacyBudget:
    """Tracks ε expenditure for one differentially private task.

    Parameters
    ----------
    epsilon:
        Total privacy budget for the task.  Must be positive and finite;
        use :meth:`PrivacyBudget.unlimited` for non-private debugging
        runs (ε = +inf, spends always succeed).
    """

    epsilon: float
    _entries: List[BudgetEntry] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not (self.epsilon > 0):
            raise ValidationError(
                f"epsilon must be positive, got {self.epsilon!r}"
            )

    @classmethod
    def unlimited(cls) -> "PrivacyBudget":
        """A budget that never runs out (for testing / ε → ∞ baselines)."""
        return cls(math.inf)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def spent(self) -> float:
        """Total ε consumed so far (sequential composition)."""
        return math.fsum(entry.epsilon for entry in self._entries)

    @property
    def remaining(self) -> float:
        """Budget still available; never negative."""
        return max(0.0, self.epsilon - self.spent)

    @property
    def entries(self) -> Tuple[BudgetEntry, ...]:
        """Immutable view of the expenditure ledger, in spend order."""
        return tuple(self._entries)

    def spend(self, epsilon: float, label: str = "") -> float:
        """Consume ``epsilon`` from the budget and return it.

        Raises
        ------
        ValidationError
            If ``epsilon`` is not positive.
        BudgetExceededError
            If the spend would overdraw the budget (beyond a small
            relative tolerance for float rounding).
        """
        if not (epsilon > 0):
            raise ValidationError(
                f"spend amount must be positive, got {epsilon!r}"
            )
        if not _admits(epsilon, self.spent, self.epsilon):
            raise BudgetExceededError(epsilon, self.remaining)
        self._entries.append(BudgetEntry(label, float(epsilon)))
        return float(epsilon)

    def spend_all(self, label: str = "") -> float:
        """Consume whatever remains and return the amount."""
        amount = self.remaining
        if amount <= 0:
            raise BudgetExceededError(0.0, 0.0)
        return self.spend(amount, label)

    # ------------------------------------------------------------------
    # Structured allocation
    # ------------------------------------------------------------------
    def split(self, fractions: Tuple[float, ...] | List[float]) -> List[float]:
        """Return ε amounts proportional to ``fractions`` of the *total*.

        Validates that the fractions are positive, finite, and sum to
        at most 1 (within tolerance); violations raise the structured
        :class:`~repro.errors.InvalidFractionsError` naming the
        offending entry, so a zero fraction can never slip through to
        a degenerate (ε = 0) stage.  Does not spend anything by itself
        — callers pass the returned amounts to :meth:`spend` as each
        stage runs, which keeps the ledger aligned with actual data
        accesses.
        """
        fractions = list(fractions)
        if not fractions:
            raise InvalidFractionsError(fractions, "must be non-empty")
        for index, fraction in enumerate(fractions):
            if not (fraction > 0) or math.isinf(fraction):
                raise InvalidFractionsError(
                    fractions,
                    f"fractions[{index}] = {fraction!r} is not a "
                    f"positive finite number",
                )
        total = math.fsum(fractions)
        if total > 1 + _REL_TOL:
            raise InvalidFractionsError(
                fractions,
                f"sum {total:g} > 1; fractions must partition the budget",
            )
        return [fraction * self.epsilon for fraction in fractions]

    def assert_within_budget(self) -> None:
        """Raise :class:`BudgetExceededError` if the ledger overdrew.

        The ``spend`` path already prevents overdrafts; this is a final
        invariant check experiments call after a pipeline finishes.
        """
        if math.isinf(self.epsilon):
            return
        if self.spent > self.epsilon * (1 + _REL_TOL):
            raise BudgetExceededError(self.spent - self.epsilon, 0.0)
