"""Per-stage release telemetry: what ran, what it cost, what it read.

A :class:`ReleaseTrace` is attached to every
:class:`~repro.core.result.PrivBasisResult` produced by the pipeline:
one :class:`StageTrace` per executed stage recording the ε spent, the
wall time, and the backend query counts, plus release-level facts
(planner, λ, which branch ran).  Traces are pure observability — they
contain only quantities that are either public parameters (ε splits,
timings) or already-released DP outputs (λ, the branch), so exposing
them on the service wire leaks nothing beyond the release itself.

Query counts come from :class:`QueryCountingBackend`, a transparent
proxy the executor wraps around whatever backend serves the release;
it delegates every primitive unchanged (memo caches underneath keep
hitting), so counting is observationally free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.engine.backend import CountingBackend

__all__ = ["QueryCountingBackend", "ReleaseTrace", "StageTrace"]


@dataclass(frozen=True)
class StageTrace:
    """Telemetry for one executed stage."""

    name: str
    epsilon: float
    touches_data: bool
    wall_time_s: float
    #: Backend primitive call counts during the stage, e.g.
    #: ``{"item_supports": 1, "top_k": 1}``.
    queries: Dict[str, int]
    note: str = ""

    def to_wire(self) -> Dict[str, object]:
        """JSON-serializable stage record (milliseconds on the wire)."""
        return {
            "stage": self.name,
            "epsilon": self.epsilon,
            "touches_data": self.touches_data,
            "wall_time_ms": round(self.wall_time_s * 1000.0, 3),
            "queries": dict(self.queries),
            "note": self.note,
        }


@dataclass
class ReleaseTrace:
    """The full execution record of one pipeline release."""

    planner: str
    epsilon: float
    k: int
    eta: float
    noise: str
    lam: int = 0
    #: ``"single_basis"`` or ``"pairs"`` — the branch actually taken.
    branch: str = ""
    stages: List[StageTrace] = field(default_factory=list)

    @property
    def epsilon_spent(self) -> float:
        """Total ε across the recorded stages (equals ε when complete)."""
        return float(sum(stage.epsilon for stage in self.stages))

    @property
    def used_single_basis(self) -> bool:
        """True when the λ ≤ threshold fast path ran."""
        return self.branch == "single_basis"

    def stage(self, name: str) -> Optional[StageTrace]:
        """The trace of the named stage, if it executed."""
        for entry in self.stages:
            if entry.name == name:
                return entry
        return None

    def to_wire(self) -> Dict[str, object]:
        """The ``trace`` payload of a release response."""
        return {
            "planner": self.planner,
            "epsilon": self.epsilon,
            "epsilon_spent": self.epsilon_spent,
            "k": self.k,
            "eta": self.eta,
            "noise": self.noise,
            "lam": self.lam,
            "branch": self.branch,
            "stages": [stage.to_wire() for stage in self.stages],
        }


class QueryCountingBackend(CountingBackend):
    """Transparent counting proxy over any backend.

    Forwards every primitive to ``inner`` unchanged and tallies calls
    per primitive name; the executor diffs :meth:`counts` around each
    stage to attribute queries.  Explicit delegation (rather than the
    base class defaults) matters for :meth:`top_k`, which must reach a
    wrapped :class:`~repro.engine.cache.CachedBackend`'s memo instead
    of the global oracle.
    """

    def __init__(self, inner: CountingBackend) -> None:
        self._inner = inner
        self._counts: Dict[str, int] = {}

    @property
    def inner(self) -> CountingBackend:
        """The wrapped backend."""
        return self._inner

    @property
    def database(self) -> TransactionDatabase:
        return self._inner.database

    def counts(self) -> Dict[str, int]:
        """Cumulative primitive call counts since construction."""
        return dict(self._counts)

    def _tally(self, kind: str, count: int = 1) -> None:
        self._counts[kind] = self._counts.get(kind, 0) + count

    def extend(self, delta: TransactionDatabase) -> None:
        self._inner.extend(delta)

    def item_supports(self) -> np.ndarray:
        self._tally("item_supports")
        return self._inner.item_supports()

    def pairwise_supports(
        self, items: Sequence[int]
    ) -> Dict[Tuple[int, int], int]:
        self._tally("pairwise_supports")
        return self._inner.pairwise_supports(items)

    def conjunction_support(self, items: Iterable[int]) -> int:
        self._tally("conjunction_support")
        return self._inner.conjunction_support(items)

    def bin_counts(self, basis: Sequence[int]) -> np.ndarray:
        self._tally("bin_counts")
        return self._inner.bin_counts(basis)

    # Batched forms forward as batches (so the inner backend's one-
    # fan-out overrides fire) but tally under the per-query kind names:
    # the trace records how many *queries* a stage asked, regardless of
    # how they were shipped.
    def conjunction_supports(
        self, itemsets: Sequence[Iterable[int]]
    ) -> List[int]:
        itemsets = list(itemsets)
        self._tally("conjunction_support", len(itemsets))
        return self._inner.conjunction_supports(itemsets)

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        bases = list(bases)
        self._tally("bin_counts", len(bases))
        return self._inner.bin_counts_batch(bases)

    def close(self) -> None:
        self._inner.close()

    def top_k(self, k: int, max_length: Optional[int] = None):
        self._tally("top_k")
        return self._inner.top_k(k, max_length=max_length)

    def __repr__(self) -> str:
        return f"QueryCountingBackend({self._inner!r})"
