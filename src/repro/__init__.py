"""PrivBasis: differentially private frequent itemset mining.

Reproduction of Li, Qardaji, Su & Cao, *PrivBasis: Frequent Itemset
Mining with Differential Privacy*, PVLDB 5(11), 2012.

Quickstart
----------
>>> from repro import load_dataset, privbasis
>>> database = load_dataset("mushroom")
>>> result = privbasis(database, k=50, epsilon=1.0, rng=7)
>>> entry = result.itemsets[0]
>>> entry.itemset                           # doctest: +SKIP
(0,)
>>> round(entry.noisy_frequency, 2)         # doctest: +SKIP
0.99

Public API layers:

* :mod:`repro.core` — the PrivBasis algorithm and its components.
* :mod:`repro.engine` — counting backends (bitmap / sharded) and the
  cached :class:`~repro.engine.session.PrivBasisSession` serving layer.
* :mod:`repro.baselines` — the TF comparison method (Bhaskar et al.).
* :mod:`repro.fim` — exact mining (top-k and frequent-itemset miners).
* :mod:`repro.datasets` — transaction databases, FIMI I/O, generators.
* :mod:`repro.pipeline` — the staged release pipeline: stages,
  pluggable budget planners, dry-run plans, per-stage traces.
* :mod:`repro.dp` — Laplace / exponential mechanisms, budget ledger.
* :mod:`repro.metrics` — FNR and relative error (paper Section 5).
* :mod:`repro.experiments` — the table/figure reproduction harness.
* :mod:`repro.service` — the multi-tenant network service
  (``python -m repro.service``).

Serving many releases over one database?  Use a session::

>>> from repro import PrivBasisSession
>>> session = PrivBasisSession(load_dataset("mushroom"), rng=7)
>>> warm = [session.release(k=25, epsilon=1.0) for _ in range(4)]
"""

from repro.datasets import TransactionDatabase, load_dataset
from repro.errors import (
    BudgetError,
    BudgetExceededError,
    DatasetFormatError,
    EmptySelectionError,
    ReproError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptivePlanner",
    "BitmapBackend",
    "BudgetError",
    "BudgetExceededError",
    "BudgetPlanner",
    "CountingBackend",
    "CustomPlanner",
    "DatasetFormatError",
    "EmptySelectionError",
    "PaperPlanner",
    "PrivBasisService",
    "PrivBasisSession",
    "ReproError",
    "ServiceClient",
    "TenantRegistry",
    "ShardedBackend",
    "TransactionDatabase",
    "ValidationError",
    "build_plan",
    "load_dataset",
    "planned_release",
    "privbasis",
    "privbasis_threshold",
    "rules_from_release",
    "tf_method",
    "__version__",
]


def __getattr__(name: str):
    # Late imports keep `import repro` light and avoid import cycles;
    # the heavy algorithm modules load on first use.
    if name == "privbasis":
        from repro.core.privbasis import privbasis

        return privbasis
    if name in (
        "PrivBasisSession",
        "CountingBackend",
        "BitmapBackend",
        "ShardedBackend",
    ):
        import repro.engine as engine

        return getattr(engine, name)
    if name in ("PrivBasisService", "ServiceClient", "TenantRegistry"):
        import repro.service as service

        return getattr(service, name)
    if name in (
        "AdaptivePlanner",
        "BudgetPlanner",
        "CustomPlanner",
        "PaperPlanner",
        "build_plan",
        "planned_release",
    ):
        import repro.pipeline as pipeline

        return getattr(pipeline, name)
    if name == "privbasis_threshold":
        from repro.core.threshold import privbasis_threshold

        return privbasis_threshold
    if name == "rules_from_release":
        from repro.rules.association import rules_from_release

        return rules_from_release
    if name == "tf_method":
        from repro.baselines.tf import tf_method

        return tf_method
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
