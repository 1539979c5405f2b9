"""Per-stage release telemetry: what ran, what it cost, what it read.

A :class:`ReleaseTrace` is attached to every
:class:`~repro.core.result.PrivBasisResult` produced by the pipeline:
one :class:`StageTrace` per executed stage recording the ε spent, the
wall time, and the backend query counts, plus release-level facts
(planner, λ, which branch ran).  Traces are pure observability — they
contain only quantities that are either public parameters (ε splits,
timings) or already-released DP outputs (λ, the branch), so exposing
them on the service wire leaks nothing beyond the release itself.

Query counts come from the :class:`~repro.engine.cache.CachedBackend`
every release runs on: each query is one cache hit or one miss, so a
stage's queries are the change in hits + misses per kind across the
stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ReleaseTrace", "StageTrace"]


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

