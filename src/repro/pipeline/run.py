"""The pipeline executor: run a priced plan against a backend.

:func:`execute_plan` walks the staged release in order — GetLambda,
the planner's selection allocation, SelectItems, (conditionally)
SelectPairs, ConstructBasis, BasisFreq — spending the plan's ε through
a :class:`~repro.dp.budget.PrivacyBudget` ledger and recording a
:class:`~repro.pipeline.trace.ReleaseTrace` as it goes.  The ledger
labels and the mechanism call sequence are byte-compatible with the
pre-pipeline monolithic ``privbasis()``: under :class:`PaperPlanner`
and a fixed seed the outputs are bit-identical (pinned by the golden
equivalence suite).

:func:`planned_release` is the one-call convenience the compatibility
wrapper (:func:`repro.core.privbasis.privbasis`), the serving session,
and the service all route through.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.core.result import PrivBasisResult
from repro.dp.budget import PrivacyBudget
from repro.dp.rng import RngLike, ensure_rng
from repro.engine.backend import CountingBackend, resolve_backend
from repro.engine.cache import CachedBackend
from repro.pipeline.plan import ReleasePlan, build_plan
from repro.pipeline.planner import PlannerSpec
from repro.pipeline.stages import (
    BasisFreqStage,
    ConstructBasis,
    GetLambda,
    SelectItems,
    SelectPairs,
    Stage,
    StageContext,
)
from repro.pipeline.trace import ReleaseTrace, StageTrace

__all__ = ["execute_plan", "planned_release"]

#: Ledger labels per stage — fixed across planners so budget audits
#: read the same regardless of policy (and identical to the
#: pre-pipeline monolith's entries).
_LEDGER_LABELS = {
    "get_lambda": "get_lambda",
    "select_items": "get_frequent_items",
    "select_pairs": "get_frequent_pairs",
    "basis_freq": "basis_freq",
}


def _queries(backend: CachedBackend) -> Dict[str, int]:
    """Queries ``backend`` has answered so far per kind (hits + misses)."""
    return {
        kind: counters["hits"] + counters["misses"]
        for kind, counters in backend.cache_info().items()
    }


def execute_plan(
    plan: ReleasePlan,
    database,
    backend: Optional[CountingBackend] = None,
    rng: RngLike = None,
) -> PrivBasisResult:
    """Run ``plan`` against ``database`` and return the release.

    ``database`` / ``backend`` follow the library-wide convention of
    :func:`~repro.engine.backend.resolve_backend` (a backend may also
    be passed positionally).  Every release draws its randomness from
    ``rng`` in stage order, spends exactly ``plan.epsilon`` in total,
    and carries its :class:`~repro.pipeline.trace.ReleaseTrace` on
    ``result.trace``.

    The release runs on a :class:`~repro.engine.cache.CachedBackend`:
    the one passed in (a session's), or a fresh one around a bare
    backend.  Each stage's trace ``queries`` are the change in the
    cache's hits + misses across the stage, so two releases must not
    share one cache concurrently — the service already serializes a
    dataset's releases under its per-dataset lock.
    """
    planner = plan.planner
    counting = resolve_backend(database, backend)
    if not isinstance(counting, CachedBackend):
        counting = CachedBackend(counting)
    generator = ensure_rng(rng)
    budget = PrivacyBudget(plan.epsilon)
    alpha1_eps, alpha2_eps, alpha3_eps = budget.split(planner.alphas)

    ctx = StageContext(
        backend=counting,
        rng=generator,
        k=plan.k,
        eta=plan.eta,
        single_basis_lambda=plan.single_basis_lambda,
        max_basis_length=plan.max_basis_length,
        greedy_basis_optimization=plan.greedy_basis_optimization,
        noise=plan.noise,
    )
    trace = ReleaseTrace(
        planner=planner.name,
        epsilon=plan.epsilon,
        k=plan.k,
        eta=plan.eta,
        noise=plan.noise,
    )

    def run_stage(stage: Stage, epsilon: float, note: str = "") -> None:
        before = _queries(counting)
        started = time.perf_counter()
        stage.run(ctx, epsilon)
        elapsed = time.perf_counter() - started
        if epsilon > 0:
            budget.spend(epsilon, _LEDGER_LABELS[stage.name])
        after = _queries(counting)
        queries = {
            kind: count - before.get(kind, 0)
            for kind, count in after.items()
            if count - before.get(kind, 0) > 0
        }
        trace.stages.append(
            StageTrace(
                name=stage.name,
                epsilon=float(epsilon),
                touches_data=stage.touches_data,
                wall_time_s=elapsed,
                queries=queries,
                note=note,
            )
        )

    run_stage(GetLambda(), alpha1_eps)
    allocation = planner.selection_allocation(
        ctx.lam,
        plan.k,
        plan.eta,
        alpha2_eps,
        plan.single_basis_lambda,
    )
    ctx.allocation = allocation
    trace.lam = ctx.lam
    trace.branch = "single_basis" if allocation.single_basis else "pairs"

    run_stage(SelectItems(), allocation.items_epsilon, note=allocation.note)
    if not allocation.single_basis and allocation.lam2 >= 1:
        run_stage(
            SelectPairs(),
            allocation.pairs_epsilon,
            note=f"lambda2 = {allocation.lam2}",
        )
    run_stage(ConstructBasis(), 0.0)
    basis_note = (
        f"includes {allocation.counting_bonus:g} reallocated from alpha2"
        if allocation.counting_bonus > 0
        else ""
    )
    run_stage(
        BasisFreqStage(),
        alpha3_eps + allocation.counting_bonus,
        note=basis_note,
    )
    budget.assert_within_budget()

    return PrivBasisResult(
        itemsets=ctx.release.itemsets,
        k=plan.k,
        epsilon=plan.epsilon,
        method="privbasis",
        lam=ctx.lam,
        frequent_items=tuple(sorted(ctx.frequent_items)),
        frequent_pairs=tuple(ctx.frequent_pairs),
        basis_set=ctx.basis_set,
        budget=budget,
        trace=trace,
    )


def planned_release(
    database,
    k: int,
    epsilon: float,
    planner: PlannerSpec = None,
    eta: Optional[float] = None,
    alphas=None,
    max_basis_length: Optional[int] = None,
    single_basis_lambda: Optional[int] = None,
    greedy_basis_optimization: bool = True,
    noise: str = "laplace",
    rng: RngLike = None,
    backend: Optional[CountingBackend] = None,
) -> PrivBasisResult:
    """Plan and execute one ε-DP top-``k`` release.

    The planner-aware entry point: everything
    :func:`repro.core.privbasis.privbasis` accepts plus ``planner``
    (a name, spec mapping, or :class:`BudgetPlanner` instance).
    """
    from repro.core.basis import DEFAULT_MAX_BASIS_LENGTH
    from repro.pipeline.planner import SINGLE_BASIS_LAMBDA

    plan = build_plan(
        k,
        epsilon,
        planner=planner,
        eta=eta,
        alphas=alphas,
        noise=noise,
        single_basis_lambda=(
            SINGLE_BASIS_LAMBDA
            if single_basis_lambda is None
            else single_basis_lambda
        ),
        max_basis_length=(
            DEFAULT_MAX_BASIS_LENGTH
            if max_basis_length is None
            else max_basis_length
        ),
        greedy_basis_optimization=greedy_basis_optimization,
    )
    return execute_plan(plan, database, backend=backend, rng=rng)
