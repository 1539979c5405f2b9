"""Release plans — dry-run ε pricing with zero data access.

:func:`build_plan` turns ``(k, ε, planner, …)`` into a
:class:`ReleasePlan`: the five pipeline stages with the ε each will
spend, priced entirely from public parameters.  Nothing here touches a
database or a backend — that is the contract ``GET /v1/plan`` relies
on to quote a release without spending tenant budget — and the same
plan object is what the executor (:mod:`repro.pipeline.run`) then
carries into execution, so the quote and the run cannot drift.

Stage prices that depend on λ (the item/pair subdivision of α₂) are
quoted as ``epsilon: None`` with the α₂ group total exact; the trace
of an executed release reports the resolved amounts.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.basis import DEFAULT_MAX_BASIS_LENGTH
from repro.core.basis_freq import NOISE_KINDS
from repro.errors import ValidationError
from repro.pipeline.planner import (
    SINGLE_BASIS_LAMBDA,
    BudgetPlanner,
    PlannerSpec,
    default_eta,
    planner_for,
)
from repro.pipeline.stages import PIPELINE_STAGES, SelectPairs, Stage

__all__ = [
    "PlannedStage",
    "ReleasePlan",
    "build_plan",
    "validate_epsilon",
    "validate_k",
]

#: Maps a stage's declared ``share`` to its index in the α triple.
_SHARE_INDEX = {"alpha1": 0, "alpha2": 1, "alpha3": 2}


def validate_k(k) -> int:
    """``k`` as a positive ``int``, or :class:`ValidationError`.

    Integers only (numpy integers included): ``int(2.7)`` would
    publish a k=2 release nobody asked for, and ``True`` is not a k.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValidationError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return int(k)


def validate_epsilon(epsilon) -> float:
    """``epsilon`` as a positive finite ``float``, or
    :class:`ValidationError`.

    ``True`` is not an ε (as it is not a k), and an integer too large
    for a float is not finite.
    """
    if isinstance(epsilon, bool):
        raise ValidationError(f"epsilon must be a number, got {epsilon!r}")
    try:
        value = float(epsilon)
    except (TypeError, ValueError):
        raise ValidationError(
            f"epsilon must be a number, got {epsilon!r}"
        ) from None
    except OverflowError:
        value = float("inf")
    if not (0 < value < float("inf")):
        raise ValidationError(
            f"epsilon must be positive and finite, got {epsilon!r}"
        )
    return value


@dataclass(frozen=True)
class PlannedStage:
    """One priced pipeline stage.

    ``epsilon`` is exact when the price depends only on public
    parameters and ``None`` when the planner resolves it at run time
    from the λ estimate; ``share`` is the α fraction of the total the
    stage's group draws.
    """

    name: str
    share: Optional[float]
    epsilon: Optional[float]
    touches_data: bool
    conditional: bool
    summary: str
    note: str = ""

    def to_wire(self) -> Dict[str, object]:
        return {
            "stage": self.name,
            "share": self.share,
            "epsilon": self.epsilon,
            "touches_data": self.touches_data,
            "conditional": self.conditional,
            "summary": self.summary,
            "note": self.note,
        }


class ReleasePlan:
    """A priced, executable description of one release.

    Construction validates every public parameter (so a plan that
    prices cleanly is also runnable) and prices the stages under the
    planner's α split.  Instances are immutable in practice: the
    executor only reads them.
    """

    def __init__(
        self,
        planner: BudgetPlanner,
        k: int,
        epsilon: float,
        eta: Optional[float] = None,
        noise: str = "laplace",
        single_basis_lambda: int = SINGLE_BASIS_LAMBDA,
        max_basis_length: int = DEFAULT_MAX_BASIS_LENGTH,
        greedy_basis_optimization: bool = True,
    ) -> None:
        k = validate_k(k)
        epsilon = validate_epsilon(epsilon)
        if eta is None:
            eta = default_eta(k)
        if eta < 1.0:
            raise ValidationError(f"eta must be >= 1, got {eta}")
        if noise not in NOISE_KINDS:
            raise ValidationError(
                f"noise must be one of {NOISE_KINDS}, got {noise!r}"
            )
        if single_basis_lambda < 0:
            raise ValidationError(
                f"single_basis_lambda must be >= 0, "
                f"got {single_basis_lambda}"
            )
        self.planner = planner
        self.k = k
        self.epsilon = epsilon
        self.eta = float(eta)
        self.noise = noise
        self.single_basis_lambda = int(single_basis_lambda)
        self.max_basis_length = int(max_basis_length)
        self.greedy_basis_optimization = bool(greedy_basis_optimization)
        self.stages: List[PlannedStage] = [
            self._price(stage) for stage in PIPELINE_STAGES
        ]

    def _price(self, stage: Stage) -> PlannedStage:
        notes = self.planner.stage_notes()
        if stage.share is None:
            share = None
            priced = 0.0
        else:
            share = self.planner.alphas[_SHARE_INDEX[stage.share]]
            # The α₂ item/pair subdivision is resolved at run time
            # from the λ estimate; only SelectItems carries the group
            # share so shares sum to 1 across the plan.
            priced = None if stage.share == "alpha2" else share * self.epsilon
            if isinstance(stage, SelectPairs):
                share = None
        return PlannedStage(
            name=stage.name,
            share=share,
            epsilon=priced,
            touches_data=stage.touches_data,
            conditional=isinstance(stage, SelectPairs),
            summary=stage.summary,
            note=notes.get(stage.name, ""),
        )

    def describe(self) -> Dict[str, object]:
        """The ``GET /v1/plan`` payload (JSON-serializable)."""
        return {
            "planner": self.planner.describe(),
            "k": self.k,
            "epsilon": self.epsilon,
            "eta": self.eta,
            "noise": self.noise,
            "single_basis_lambda": self.single_basis_lambda,
            "max_basis_length": self.max_basis_length,
            "stages": [stage.to_wire() for stage in self.stages],
        }

    def __repr__(self) -> str:
        return (
            f"ReleasePlan(planner={self.planner.name!r}, k={self.k}, "
            f"epsilon={self.epsilon:g})"
        )


def build_plan(
    k: int,
    epsilon: float,
    planner: PlannerSpec = None,
    eta: Optional[float] = None,
    noise: str = "laplace",
    single_basis_lambda: int = SINGLE_BASIS_LAMBDA,
    max_basis_length: int = DEFAULT_MAX_BASIS_LENGTH,
    greedy_basis_optimization: bool = True,
    alphas=None,
) -> ReleasePlan:
    """Price a release without touching any data.

    ``planner`` accepts everything
    :func:`~repro.pipeline.planner.resolve_planner` does; ``alphas``
    is the legacy shorthand for a custom split (mutually exclusive
    with ``planner``).
    """
    return ReleasePlan(
        planner_for(planner, alphas),
        k=k,
        epsilon=epsilon,
        eta=eta,
        noise=noise,
        single_basis_lambda=single_basis_lambda,
        max_basis_length=max_basis_length,
        greedy_basis_optimization=greedy_basis_optimization,
    )
