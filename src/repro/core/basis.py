"""Basis sets (paper Definitions 2 and 3).

A θ-basis set ``B = {B_1, …, B_w}`` covers every θ-frequent itemset:
each such itemset is a subset of some basis ``B_i``.  Its *width* is
``w = |B|`` and its *length* is ``ℓ = max_i |B_i|``.  The candidate set
``C(B)`` is the union of the powersets of the bases — the family of
itemsets whose frequencies BasisFreq can reconstruct.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Set, Tuple

from repro.datasets.transactions import TransactionDatabase, canonical_itemset
from repro.errors import ValidationError
from repro.fim.counting import DEFAULT_MAX_BASIS_LENGTH
from repro.fim.itemsets import Itemset, all_nonempty_subsets

__all__ = ["DEFAULT_MAX_BASIS_LENGTH", "BasisSet", "single_basis"]


class BasisSet:
    """An immutable collection of bases (each a sorted item tuple).

    Duplicate bases and bases subsumed by another basis are redundant —
    they waste privacy budget (sensitivity grows with width ``w``) —
    but are permitted, because intermediate states of the greedy
    constructor can contain them; :meth:`simplified` removes them.
    """

    def __init__(self, bases: Iterable[Iterable[int]]) -> None:
        normalized = [canonical_itemset(basis) for basis in bases]
        if any(len(basis) == 0 for basis in normalized):
            raise ValidationError("bases must be non-empty itemsets")
        self._bases: Tuple[Itemset, ...] = tuple(normalized)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def bases(self) -> Tuple[Itemset, ...]:
        return self._bases

    @property
    def width(self) -> int:
        """``w`` — the number of bases (paper Definition 2)."""
        return len(self._bases)

    @property
    def length(self) -> int:
        """``ℓ`` — the size of the largest basis."""
        return max((len(basis) for basis in self._bases), default=0)

    @property
    def items(self) -> Itemset:
        """All distinct items appearing in some basis."""
        return tuple(
            sorted({item for basis in self._bases for item in basis})
        )

    def __len__(self) -> int:
        return self.width

    def __iter__(self) -> Iterator[Itemset]:
        return iter(self._bases)

    def __getitem__(self, index: int) -> Itemset:
        return self._bases[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasisSet):
            return NotImplemented
        return sorted(self._bases) == sorted(other._bases)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._bases)))

    def __repr__(self) -> str:
        return (
            f"BasisSet(width={self.width}, length={self.length}, "
            f"bases={list(self._bases)!r})"
        )

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def covers(self, itemset: Iterable[int]) -> bool:
        """True iff some basis is a superset of ``itemset``."""
        target = set(canonical_itemset(itemset))
        return any(target <= set(basis) for basis in self._bases)

    def covering_bases(self, itemset: Iterable[int]) -> List[int]:
        """Indices of all bases covering ``itemset``.

        An itemset covered by several bases gets several independent
        noisy counts, which BasisFreq combines by inverse-variance
        weighting.
        """
        target = set(canonical_itemset(itemset))
        return [
            index
            for index, basis in enumerate(self._bases)
            if target <= set(basis)
        ]

    def candidate_set(self) -> List[Itemset]:
        """``C(B)`` — all non-empty subsets of the bases (Definition 3).

        Sorted by (size, lexicographic); each itemset appears once even
        when covered by multiple bases.  Exponential in basis length, so
        callers should have enforced the length cap first.
        """
        seen: Set[Itemset] = set()
        for basis in self._bases:
            for subset in all_nonempty_subsets(basis):
                seen.add(subset)
        return sorted(seen, key=lambda itemset: (len(itemset), itemset))

    def candidate_count(self) -> int:
        """``|C(B)|`` without materializing it (inclusion by dedup)."""
        return len(self.candidate_set())

    def is_theta_basis_for(
        self,
        database: TransactionDatabase,
        theta: float,
    ) -> bool:
        """Exactly verify the θ-basis property against a database.

        Non-private (scans the data); used in tests and diagnostics,
        never inside the DP pipeline.
        """
        from repro.fim.topk import frequent_itemsets

        if not 0 < theta <= 1:
            raise ValidationError(f"theta must be in (0, 1], got {theta}")
        min_support = _ceil_support(theta, database.num_transactions)
        frequent = frequent_itemsets(database, max(1, min_support))
        return all(self.covers(itemset) for itemset in frequent)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def simplified(self) -> "BasisSet":
        """Drop duplicate bases and bases contained in another basis."""
        kept: List[Itemset] = []
        ordered = sorted(self._bases, key=len, reverse=True)
        for basis in ordered:
            basis_set = set(basis)
            if any(basis_set <= set(existing) for existing in kept):
                continue
            kept.append(basis)
        return BasisSet(sorted(kept))

    def merged(self, first: int, second: int) -> "BasisSet":
        """Merge bases ``first`` and ``second`` (paper Proposition 4).

        Replacing ``B_i, B_j`` with ``B_i ∪ B_j`` preserves the θ-basis
        property and reduces the width by one.
        """
        if first == second:
            raise ValidationError("cannot merge a basis with itself")
        union = tuple(
            sorted(set(self._bases[first]) | set(self._bases[second]))
        )
        remaining = [
            basis
            for index, basis in enumerate(self._bases)
            if index not in (first, second)
        ]
        return BasisSet(remaining + [union])

    def enforce_max_length(self, max_length: int) -> "BasisSet":
        """Split oversized bases so every basis has ≤ ``max_length`` items.

        Splitting *weakens* coverage (subsets straddling the cut are no
        longer covered), so the pipeline prefers never to build
        oversized bases; this is a safety valve for adversarial inputs.
        """
        if max_length < 1:
            raise ValidationError(
                f"max_length must be >= 1, got {max_length}"
            )
        pieces: List[Itemset] = []
        for basis in self._bases:
            if len(basis) <= max_length:
                pieces.append(basis)
                continue
            for start in range(0, len(basis), max_length):
                pieces.append(basis[start:start + max_length])
        return BasisSet(pieces)


def single_basis(items: Iterable[int]) -> BasisSet:
    """The width-1 basis set ``{{x_1, …, x_λ}}`` (paper Proposition 2)."""
    return BasisSet([canonical_itemset(items)])


def _ceil_support(theta: float, num_transactions: int) -> int:
    """Smallest support count with frequency ≥ θ."""
    import math

    return int(math.ceil(theta * num_transactions - 1e-9))
