"""Result containers for the private mining pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.core.basis import BasisSet
from repro.dp.budget import PrivacyBudget
from repro.fim.itemsets import Itemset

if TYPE_CHECKING:  # avoid a runtime core ↔ pipeline import cycle
    from repro.pipeline.trace import ReleaseTrace


@dataclass(frozen=True)
class NoisyItemset:
    """One published itemset with its noisy statistics."""

    itemset: Itemset
    noisy_count: float
    noisy_frequency: float
    #: Variance of the noisy count estimate (absolute, count units).
    count_variance: float


@dataclass
class PrivateFIMResult:
    """Output of a differentially private top-k release.

    ``itemsets`` holds the k published itemsets in decreasing noisy
    frequency order.  The structure is shared by PrivBasis and the TF
    baseline so the metrics layer treats them uniformly.
    """

    itemsets: List[NoisyItemset]
    k: int
    epsilon: float
    method: str
    #: Snapshot version of the database this release was computed on.
    #: ``None`` for direct pipeline calls over a static database; the
    #: snapshot-aware serving session
    #: (:class:`repro.engine.session.PrivBasisSession`) pins it so a
    #: release is attributable to one exact data state even while
    #: ingestion keeps appending.
    snapshot_version: Optional[int] = None

    def itemset_set(self) -> Set[Itemset]:
        """The published itemsets as a set (FNR computation)."""
        return {entry.itemset for entry in self.itemsets}

    def frequencies(self) -> Dict[Itemset, float]:
        """Mapping itemset → published noisy frequency."""
        return {
            entry.itemset: entry.noisy_frequency for entry in self.itemsets
        }

    def __len__(self) -> int:
        return len(self.itemsets)


@dataclass
class PrivBasisResult(PrivateFIMResult):
    """PrivBasis output plus pipeline diagnostics (paper Algorithm 3).

    The diagnostic fields expose every intermediate private choice so
    experiments can report λ, the selected items/pairs, and the basis
    geometry alongside the published itemsets.
    """

    lam: int = 0
    frequent_items: Tuple[int, ...] = ()
    frequent_pairs: Tuple[Itemset, ...] = ()
    basis_set: Optional[BasisSet] = None
    budget: Optional[PrivacyBudget] = None
    #: Per-stage execution record (ε, wall time, backend queries) of
    #: the pipeline run that produced this release; populated by
    #: :mod:`repro.pipeline.run`, ``None`` only for results built by
    #: hand (e.g. in tests).
    trace: Optional["ReleaseTrace"] = None

    @property
    def used_single_basis(self) -> bool:
        """True when the λ ≤ threshold branch was taken."""
        return self.basis_set is not None and self.basis_set.width == 1
