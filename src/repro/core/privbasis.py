"""PrivBasis — paper Algorithm 3 (the main pipeline).

Five steps, with the privacy budget ε split α₁/α₂/α₃ = 0.1/0.4/0.5:

1. ``GetLambda`` (α₁ε) — estimate λ, the number of distinct items in
   the top-k itemsets (safety-inflated by η).
2. If λ ≤ 12: ``GetFreqItems`` (α₂ε) selects the λ most frequent items
   ``F`` and the basis set is the single basis ``{F}``
   (Proposition 2).
3. Otherwise the α₂ε item budget is split λ:λ₂ between selecting λ
   items and λ₂ pairs, where λ₂ is the paper's damped heuristic
   ``(η·k − λ)/√max(1, (η·k−λ)/λ)``.
4. ``ConstructBasisSet`` (no data access) turns ``(F, P)`` into a basis
   set via maximal cliques + greedy EV merging.
5. ``BasisFreq`` (α₃ε) releases noisy counts of all covered itemsets
   and picks the top k.

Sequential composition over the data-touching steps gives ε-DP in
total (paper Theorem 6); the :class:`~repro.dp.budget.PrivacyBudget`
ledger enforces it at runtime.

Since the staged-pipeline refactor this module is a thin compatibility
wrapper: the stages live in :mod:`repro.pipeline.stages`, the budget
split is a pluggable :class:`~repro.pipeline.planner.BudgetPlanner`
(the default :class:`~repro.pipeline.planner.PaperPlanner` reproduces
this docstring's split bit-for-bit), and execution — including the
per-stage :class:`~repro.pipeline.trace.ReleaseTrace` every result now
carries — happens in :mod:`repro.pipeline.run`.  See
``docs/pipeline.md``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.basis import DEFAULT_MAX_BASIS_LENGTH
from repro.core.result import PrivBasisResult
from repro.datasets.transactions import TransactionDatabase
from repro.dp.rng import RngLike
from repro.engine.backend import CountingBackend
from repro.pipeline.planner import (
    DEFAULT_ALPHAS,
    SINGLE_BASIS_LAMBDA,
    PlannerSpec,
    default_eta,
)

__all__ = [
    "DEFAULT_ALPHAS",
    "SINGLE_BASIS_LAMBDA",
    "default_eta",
    "privbasis",
]


def privbasis(
    database: TransactionDatabase,
    k: int,
    epsilon: float,
    eta: Optional[float] = None,
    alphas: Tuple[float, float, float] = DEFAULT_ALPHAS,
    max_basis_length: int = DEFAULT_MAX_BASIS_LENGTH,
    single_basis_lambda: int = SINGLE_BASIS_LAMBDA,
    greedy_basis_optimization: bool = True,
    noise: str = "laplace",
    rng: RngLike = None,
    backend: CountingBackend = None,
    planner: PlannerSpec = None,
) -> PrivBasisResult:
    """Release the top-``k`` frequent itemsets under ε-DP.

    Parameters
    ----------
    database:
        The transaction database (vocabulary is treated as public).
        A :class:`~repro.engine.backend.CountingBackend` is also
        accepted here directly.
    k:
        Number of itemsets to publish.
    epsilon:
        Total privacy budget.
    eta:
        Safety-margin parameter η ≥ 1; defaults to
        :func:`~repro.pipeline.planner.default_eta`.
    alphas:
        Budget fractions (α₁, α₂, α₃) for steps 1 / 2–3 / 5; must be
        positive and sum to 1.  A non-default value builds a
        :class:`~repro.pipeline.planner.CustomPlanner`; mutually
        exclusive with ``planner``.
    max_basis_length:
        Hard cap ℓ on basis length (bins are 2^ℓ).
    single_basis_lambda:
        λ threshold for the single-basis fast path.
    greedy_basis_optimization:
        Forwarded to :func:`~repro.core.construct_basis.construct_basis_set`;
        False skips the greedy EV merge/dissolve phases (ablation
        switch).
    noise:
        Bin-noise mechanism for step 5: ``"laplace"`` (paper) or
        ``"geometric"`` (discrete analogue; extension).
    rng:
        Seed or generator for all randomness.
    backend:
        Counting engine all data access routes through; defaults to a
        fresh :class:`~repro.engine.bitmap.BitmapBackend` over
        ``database``.  Pass a warm backend (or use
        :class:`~repro.engine.session.PrivBasisSession`) to reuse
        exact intermediates across repeated releases.
    planner:
        Budget-allocation policy — a name (``"paper"`` /
        ``"adaptive"``), a spec mapping, or a
        :class:`~repro.pipeline.planner.BudgetPlanner` instance.
        Defaults to the paper plan.

    Returns
    -------
    PrivBasisResult
        Published itemsets with noisy frequencies, plus diagnostics
        (λ, F, P, the basis set, the budget ledger, and the per-stage
        :class:`~repro.pipeline.trace.ReleaseTrace` on ``.trace``).
    """
    # Imported here, not at module top: repro.core's package init
    # imports this module while repro.pipeline.plan may still be
    # mid-import (it pulls core.basis), so a top-level import of the
    # executor would close a cycle.
    from repro.pipeline.run import planned_release

    # The legacy alphas keyword maps onto the planner layer: the
    # default triple means "paper plan" (not a custom planner), so
    # planner= stays usable alongside the old signature.
    alphas_spec = None if tuple(alphas) == DEFAULT_ALPHAS else alphas
    return planned_release(
        database,
        k=k,
        epsilon=epsilon,
        planner=planner,
        eta=eta,
        alphas=alphas_spec,
        max_basis_length=max_basis_length,
        single_basis_lambda=single_basis_lambda,
        greedy_basis_optimization=greedy_basis_optimization,
        noise=noise,
        rng=rng,
        backend=backend,
    )
