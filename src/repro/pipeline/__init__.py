"""The staged release pipeline: stages, budget planners, plans, traces.

This package decomposes the paper's Algorithm 3 into five
:class:`~repro.pipeline.stages.Stage` objects priced by a pluggable
:class:`~repro.pipeline.planner.BudgetPlanner` and executed under a
:class:`~repro.pipeline.plan.ReleasePlan`, producing a
:class:`~repro.pipeline.trace.ReleaseTrace` of per-stage ε, wall time,
and backend query counts.  ``docs/pipeline.md`` is the narrative
reference; :func:`repro.core.privbasis.privbasis` remains the
compatibility wrapper over the paper plan.

Quick tour::

    from repro.pipeline import build_plan, planned_release, AdaptivePlanner

    plan = build_plan(k=100, epsilon=0.5, planner="adaptive")
    print(plan.describe())                # dry-run pricing, no data
    result = planned_release(database, k=100, epsilon=0.5,
                             planner=AdaptivePlanner(), rng=7)
    print(result.trace.to_wire())         # per-stage telemetry
"""

from repro.pipeline.plan import PlannedStage, ReleasePlan, build_plan
from repro.pipeline.planner import (
    DEFAULT_ALPHAS,
    SINGLE_BASIS_LAMBDA,
    AdaptivePlanner,
    BudgetPlanner,
    CustomPlanner,
    PaperPlanner,
    SelectionAllocation,
    default_eta,
    pair_budget_size,
    planner_for,
    planner_names,
    resolve_planner,
    validate_alphas,
)
from repro.pipeline.reuse import (
    ReuseDecision,
    ReuseIndex,
    StoredRelease,
    reuse_covers,
    top_k_truncate,
)
from repro.pipeline.run import execute_plan, planned_release
from repro.pipeline.stages import (
    PIPELINE_STAGES,
    BasisFreqStage,
    ConstructBasis,
    GetLambda,
    SelectItems,
    SelectPairs,
    Stage,
    StageContext,
)
from repro.pipeline.trace import (
    QueryCountingBackend,
    ReleaseTrace,
    StageTrace,
)

__all__ = [
    "AdaptivePlanner",
    "BasisFreqStage",
    "BudgetPlanner",
    "ConstructBasis",
    "CustomPlanner",
    "DEFAULT_ALPHAS",
    "GetLambda",
    "PIPELINE_STAGES",
    "PaperPlanner",
    "PlannedStage",
    "QueryCountingBackend",
    "ReleasePlan",
    "ReleaseTrace",
    "ReuseDecision",
    "ReuseIndex",
    "SINGLE_BASIS_LAMBDA",
    "SelectItems",
    "SelectPairs",
    "SelectionAllocation",
    "Stage",
    "StageContext",
    "StageTrace",
    "StoredRelease",
    "build_plan",
    "default_eta",
    "execute_plan",
    "pair_budget_size",
    "planned_release",
    "planner_for",
    "planner_names",
    "resolve_planner",
    "reuse_covers",
    "top_k_truncate",
    "validate_alphas",
]
