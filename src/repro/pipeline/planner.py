"""Budget planners — policies that price a release before it runs.

The paper's Algorithm 3 splits the release budget ε as
α₁/α₂/α₃ = 0.1/0.4/0.5 across its stages, then subdivides the α₂
selection budget λ:λ₂ between items and pairs once λ is known.  A
:class:`BudgetPlanner` owns both decisions:

* :attr:`BudgetPlanner.alphas` — the (α₁, α₂, α₃) stage fractions,
  validated once here instead of ad hoc inside ``privbasis()``;
* :meth:`BudgetPlanner.selection_allocation` — how the α₂ε selection
  budget is divided between items and pairs (and, for the adaptive
  policy, how much of it is returned to counting) given the λ
  estimate.

λ is itself the output of an ε-DP mechanism, so conditioning later
stage budgets on it is post-processing: any planner keeps the release
ε-DP by sequential composition as long as the realized spends sum to
at most ε (see ``docs/privacy-accounting.md``).

Three built-in policies:

* :class:`PaperPlanner` — the paper's untuned split, bit-for-bit
  identical to the pre-pipeline ``privbasis()`` under a fixed seed;
* :class:`CustomPlanner` — user-chosen α fractions, paper λ:λ₂
  subdivision;
* :class:`AdaptivePlanner` — reallocates the α₂ budget from the λ
  estimate (pairs weighted up in the pairs branch, unused selection
  budget returned to counting in the single-basis branch).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import UnknownPlannerError, ValidationError

__all__ = [
    "DEFAULT_ALPHAS",
    "SINGLE_BASIS_LAMBDA",
    "AdaptivePlanner",
    "BudgetPlanner",
    "CustomPlanner",
    "PaperPlanner",
    "SelectionAllocation",
    "default_eta",
    "pair_budget_size",
    "planner_for",
    "planner_names",
    "resolve_planner",
    "validate_alphas",
]

#: Budget fractions (α₁, α₂, α₃) — the paper's untuned default.
DEFAULT_ALPHAS: Tuple[float, float, float] = (0.1, 0.4, 0.5)

#: λ at or below which a single basis of the λ most frequent items is
#: used (paper Section 4.4: "Step 3 is needed only when λ > 12").
SINGLE_BASIS_LAMBDA = 12


def default_eta(k: int) -> float:
    """The paper's safety margin: 1.1 or 1.2 "depending on k".

    Small k leaves more room for the relative inflation, so we use 1.2
    up to k = 100 and 1.1 beyond.
    """
    return 1.2 if k <= 100 else 1.1


def pair_budget_size(lam: int, k: int, eta: float) -> int:
    """The paper's λ₂ heuristic (Section 4.4).

    ``λ₂' = η·k − λ`` damped by ``√max(1, λ₂'/λ)``: when far more pairs
    than items would be requested, most of the top-k are actually
    deeper itemsets over few items, so fewer explicit pairs suffice
    (worked example in the paper: pumsb-star, λ = 20 → λ₂ = 44).
    """
    lam2_raw = eta * k - lam
    if lam2_raw <= 0:
        return 0
    damped = lam2_raw / math.sqrt(max(1.0, lam2_raw / lam))
    # Floor, not round: the paper's worked example (λ = 20, k = 100,
    # η = 1.2 → λ₂ = 44) implies ⌊100/√5⌋ = 44.
    return max(1, int(damped))


def validate_alphas(
    alphas: Iterable[float],
) -> Tuple[float, float, float]:
    """Validate (α₁, α₂, α₃) fractions: three, positive, summing to 1.

    This is the single home of the alpha checks that used to live
    inside ``privbasis()``; planners call it at construction so a bad
    split fails before any plan is priced or data touched.
    """
    converted = []
    for index, alpha in enumerate(alphas):
        try:
            converted.append(float(alpha))
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"alphas[{index}] must be a number, got {alpha!r}"
            ) from None
    alphas = tuple(converted)
    if len(alphas) != 3:
        raise ValidationError(
            f"alphas must have 3 entries, got {alphas!r}"
        )
    if any(not (alpha > 0) or math.isinf(alpha) for alpha in alphas):
        raise ValidationError(
            f"all alphas must be positive and finite, got {alphas!r}"
        )
    if abs(math.fsum(alphas) - 1.0) > 1e-9:
        raise ValidationError(
            f"alphas must sum to 1, got {alphas!r} "
            f"(sum {math.fsum(alphas):g})"
        )
    return alphas


@dataclass(frozen=True)
class SelectionAllocation:
    """How one release divides its α₂ε selection budget, given λ.

    ``items_epsilon`` funds the item selection (always runs),
    ``pairs_epsilon`` the pair selection (only when ``lam2 >= 1`` in
    the pairs branch), and ``counting_bonus`` is selection budget the
    planner hands forward to the BasisFreq counting stage instead.
    The three always sum to exactly the α₂ε the planner was given, so
    the release ledger totals ε regardless of policy.
    """

    single_basis: bool
    items_epsilon: float
    pairs_epsilon: float
    lam2: int
    counting_bonus: float = 0.0
    note: str = ""


class BudgetPlanner(abc.ABC):
    """A pricing policy for the five-stage release pipeline.

    Subclasses set :attr:`name` (the wire/CLI identifier) and
    implement :meth:`selection_allocation`; the α fractions are
    validated once at construction.
    """

    #: Stable identifier used on the wire and in traces.
    name: str = "planner"

    def __init__(
        self, alphas: Tuple[float, float, float] = DEFAULT_ALPHAS
    ) -> None:
        self._alphas = validate_alphas(alphas)

    @property
    def alphas(self) -> Tuple[float, float, float]:
        """The validated (α₁, α₂, α₃) stage fractions."""
        return self._alphas

    @abc.abstractmethod
    def selection_allocation(
        self,
        lam: int,
        k: int,
        eta: float,
        alpha2_epsilon: float,
        single_basis_lambda: int,
    ) -> SelectionAllocation:
        """Divide the α₂ε selection budget once λ is known.

        Called exactly once per release, after GetLambda and before
        any selection draws; λ is a DP output, so the division is
        post-processing.
        """

    def stage_notes(self) -> Dict[str, str]:
        """Per-stage pricing notes for the dry-run plan display."""
        return {
            "select_items": (
                "receives all of alpha2 when lambda <= threshold; "
                "otherwise alpha2 is split items:pairs as lambda:lambda2"
            ),
            "select_pairs": "runs only when lambda > threshold",
        }

    def describe(self) -> Dict[str, object]:
        """JSON-serializable identity for plan/trace payloads."""
        return {"name": self.name, "alphas": list(self._alphas)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(alphas={self._alphas!r})"


class CustomPlanner(BudgetPlanner):
    """User-chosen α fractions with the paper's λ:λ₂ subdivision."""

    name = "custom"

    def selection_allocation(
        self,
        lam: int,
        k: int,
        eta: float,
        alpha2_epsilon: float,
        single_basis_lambda: int,
    ) -> SelectionAllocation:
        if lam <= single_basis_lambda:
            return SelectionAllocation(
                single_basis=True,
                items_epsilon=alpha2_epsilon,
                pairs_epsilon=0.0,
                lam2=0,
                note="single-basis fast path: all of alpha2 to items",
            )
        lam2 = pair_budget_size(lam, k, eta)
        available_pairs = lam * (lam - 1) // 2
        lam2 = min(lam2, available_pairs)
        if lam2 >= 1:
            # Expression kept verbatim from the pre-pipeline
            # privbasis() so PaperPlanner releases stay bit-identical.
            beta1_eps = alpha2_epsilon * lam / (lam + lam2)
            beta2_eps = alpha2_epsilon - beta1_eps
        else:
            beta1_eps, beta2_eps = alpha2_epsilon, 0.0
        return SelectionAllocation(
            single_basis=False,
            items_epsilon=beta1_eps,
            pairs_epsilon=beta2_eps,
            lam2=lam2,
            note=f"paper split lambda:lambda2 = {lam}:{lam2}",
        )


class PaperPlanner(CustomPlanner):
    """The paper's untuned α₁/α₂/α₃ = 0.1/0.4/0.5 split.

    Takes no arguments; releases planned by it are bit-for-bit
    identical (itemsets, frequencies, ledger entries) to the
    pre-pipeline monolithic ``privbasis()`` under a fixed seed, which
    the golden equivalence suite pins.
    """

    name = "paper"

    def __init__(self) -> None:
        super().__init__(DEFAULT_ALPHAS)


class AdaptivePlanner(BudgetPlanner):
    """Reallocate the α₂ selection budget from the λ estimate.

    Two deviations from the paper split, both post-processing of the
    DP λ release:

    * **Single-basis branch** (λ ≤ threshold): the selection task
      shrank from ~η·k draws to λ draws, so paying it all of α₂ε
      over-funds it.  Items are paid at the *paper* pairs-branch
      per-draw rate — ``α₂ε · λ / (λ + λ₂)`` with λ₂ the paper
      heuristic, deliberately unweighted since no pairs are selected
      here — and the remainder moves to the BasisFreq counting stage,
      where extra ε directly shrinks bin noise.
    * **Pairs branch**: pair supports are bounded by the smaller of
      their items' supports, so the exponential mechanism separates
      pairs with systematically smaller quality gaps.  Pair draws are
      weighted twice as heavily as item draws
      (``β₁:β₂ = λ:2λ₂`` instead of λ:λ₂).

    The α fractions themselves default to the paper's and may be
    overridden (``AdaptivePlanner(alphas=(0.1, 0.3, 0.6))``).
    """

    name = "adaptive"

    #: Per-draw weight of a pair selection relative to an item one.
    PAIR_WEIGHT = 2.0

    def selection_allocation(
        self,
        lam: int,
        k: int,
        eta: float,
        alpha2_epsilon: float,
        single_basis_lambda: int,
    ) -> SelectionAllocation:
        lam2 = pair_budget_size(lam, k, eta)
        available_pairs = lam * (lam - 1) // 2
        lam2 = min(lam2, available_pairs)
        if lam <= single_basis_lambda:
            if lam2 >= 1:
                items_eps = alpha2_epsilon * lam / (lam + lam2)
            else:
                items_eps = alpha2_epsilon
            bonus = alpha2_epsilon - items_eps
            return SelectionAllocation(
                single_basis=True,
                items_epsilon=items_eps,
                pairs_epsilon=0.0,
                lam2=0,
                counting_bonus=bonus,
                note=(
                    f"single-basis fast path: {bonus:g} of alpha2*eps "
                    f"moved to counting"
                ),
            )
        if lam2 >= 1:
            weighted = lam + self.PAIR_WEIGHT * lam2
            beta1_eps = alpha2_epsilon * lam / weighted
            beta2_eps = alpha2_epsilon - beta1_eps
        else:
            beta1_eps, beta2_eps = alpha2_epsilon, 0.0
        return SelectionAllocation(
            single_basis=False,
            items_epsilon=beta1_eps,
            pairs_epsilon=beta2_eps,
            lam2=lam2,
            note=(
                f"adaptive split lambda:{self.PAIR_WEIGHT:g}*lambda2 "
                f"= {lam}:{self.PAIR_WEIGHT * lam2:g}"
            ),
        )

    def stage_notes(self) -> Dict[str, str]:
        return {
            "select_items": (
                "alpha2 split items:pairs as lambda:2*lambda2; in the "
                "single-basis regime the unused share moves to counting"
            ),
            "select_pairs": "runs only when lambda > threshold",
            "basis_freq": (
                "may receive the unused share of alpha2 when the "
                "single-basis fast path is taken"
            ),
        }


#: Planner names resolvable on the wire / CLI.  ``custom`` needs an
#: explicit ``alphas`` argument, so a bare ``"custom"`` string is
#: rejected with guidance.
_PLANNERS = {
    "paper": PaperPlanner,
    "custom": CustomPlanner,
    "adaptive": AdaptivePlanner,
}

PlannerSpec = Union[None, str, Mapping[str, object], BudgetPlanner]


def planner_names() -> Tuple[str, ...]:
    """The resolvable planner names, for error messages and docs."""
    return tuple(sorted(_PLANNERS))


def resolve_planner(spec: PlannerSpec = None) -> BudgetPlanner:
    """Coerce a planner spec into a :class:`BudgetPlanner`.

    Accepts ``None`` (the paper plan), a ready planner instance, a
    name (``"paper"`` / ``"adaptive"``), or a mapping like
    ``{"name": "custom", "alphas": [0.1, 0.3, 0.6]}`` — the shape the
    service wire and CLI hand over.  Unknown names raise
    :class:`~repro.errors.UnknownPlannerError` (wire code
    ``unknown_planner``).
    """
    if spec is None:
        return PaperPlanner()
    if isinstance(spec, BudgetPlanner):
        return spec
    if isinstance(spec, str):
        return _resolve_named(spec, alphas=None)
    if isinstance(spec, Mapping):
        unknown = set(spec) - {"name", "alphas"}
        if unknown:
            raise ValidationError(
                f"unknown planner spec keys {sorted(unknown)}; "
                f"allowed: ['name', 'alphas']"
            )
        name = spec.get("name")
        if not isinstance(name, str):
            raise ValidationError(
                f"planner spec needs a 'name' string, got {name!r}"
            )
        alphas = spec.get("alphas")
        if alphas is not None:
            if isinstance(alphas, (str, bytes)) or not hasattr(
                alphas, "__iter__"
            ):
                raise ValidationError(
                    f"planner 'alphas' must be a list of 3 numbers, "
                    f"got {alphas!r}"
                )
            alphas = tuple(alphas)
        return _resolve_named(name, alphas=alphas)
    raise ValidationError(
        f"planner must be a name, mapping, or BudgetPlanner, "
        f"got {type(spec).__name__}"
    )


def _resolve_named(
    name: str, alphas: Optional[Tuple[float, ...]]
) -> BudgetPlanner:
    factory = _PLANNERS.get(name)
    if factory is None:
        raise UnknownPlannerError(name, planner_names())
    if factory is PaperPlanner:
        if alphas is not None and tuple(alphas) != DEFAULT_ALPHAS:
            raise ValidationError(
                "the paper planner's alphas are fixed at "
                f"{DEFAULT_ALPHAS}; use 'custom' to choose your own"
            )
        return PaperPlanner()
    if factory is CustomPlanner and alphas is None:
        raise ValidationError(
            "the custom planner needs explicit alphas, e.g. "
            "{'name': 'custom', 'alphas': [0.1, 0.3, 0.6]}"
        )
    if alphas is None:
        return factory()
    return factory(alphas)


def planner_for(
    planner: PlannerSpec = None,
    alphas: Optional[Tuple[float, ...]] = None,
) -> BudgetPlanner:
    """Resolve the ``(planner, alphas)`` calling convention.

    ``alphas`` is the legacy ``privbasis(alphas=...)`` keyword: alone
    it builds a :class:`CustomPlanner` (or the paper planner when it
    equals the paper split); combined with an explicit planner it is
    ambiguous and rejected.
    """
    if planner is not None and alphas is not None:
        raise ValidationError(
            "pass either planner= or alphas=, not both (a planner "
            "already owns its alpha split)"
        )
    if planner is None and alphas is not None:
        if tuple(float(alpha) for alpha in alphas) == DEFAULT_ALPHAS:
            return PaperPlanner()
        return CustomPlanner(tuple(alphas))
    return resolve_planner(planner)
