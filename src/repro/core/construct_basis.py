"""ConstructBasisSet — paper Algorithm 2.

Builds a basis set covering all maximal cliques of the frequent-pairs
graph ``(F, P)`` while greedily minimizing the average-case error
variance (EV) of querying the frequencies of the items in ``F`` and the
pairs in ``P``:

1. ``B1`` ← maximal cliques of size ≥ 2 (Bron–Kerbosch);
2. ``B2`` ← items of ``F`` appearing in no pair, grouped into itemsets
   of ≤ 3 (size 3 minimizes ``2^{ℓ−1}/ℓ²``, Section 4.2);
3. greedily merge pairs of bases in ``B1`` while the merge with the
   largest EV reduction still reduces EV (merging shrinks the width
   ``w`` — whose square multiplies every variance — at the cost of
   longer bases);
4. greedily dissolve bases of ``B2``, moving their items into the
   smallest existing bases, while that reduces EV.

A cap on basis length (default 12, paper Section 4.2) bounds the
``2^ℓ`` bin blow-up the greedy search can cause: merges and dissolves
that would exceed it are vetoed.  It does not split cliques — a maximal
clique longer than the cap stays one basis.

The greedy phases score each candidate move from the rows it changes
(:class:`_EVScorer`), not by a from-scratch ``average_case_ev``; the
scores are the same floats, so the chosen bases are the paper greedy's.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.core.basis import (
    DEFAULT_MAX_BASIS_LENGTH,
    BasisSet,
)
from repro.core.error_variance import average_case_ev
from repro.errors import ValidationError
from repro.fim.itemsets import Itemset, canonical_itemset
from repro.graph.adjacency import UndirectedGraph
from repro.graph.bron_kerbosch import maximal_cliques

#: EV improvements smaller than this are treated as "no reduction" so
#: the greedy loops terminate cleanly despite float noise.
_EV_TOLERANCE = 1e-12

#: Candidate × query cells a merge step scores per array (16 MiB of
#: int64), so hundreds of cliques cannot allocate gigabytes.
_BLOCK_CELLS = 1 << 21


def construct_basis_set(
    frequent_items: Iterable[int],
    frequent_pairs: Iterable[Itemset],
    max_basis_length: int = DEFAULT_MAX_BASIS_LENGTH,
    greedy_optimize: bool = True,
) -> BasisSet:
    """Paper Algorithm 2.

    Parameters
    ----------
    frequent_items:
        ``F`` — the (privately selected) frequent items.
    frequent_pairs:
        ``P`` — the (privately selected) frequent pairs; every pair
        must consist of items of ``F``.
    max_basis_length:
        Cap ℓ on the bases the greedy phases build: a merge or
        dissolve that would exceed it is vetoed.  Maximal cliques
        longer than ℓ are kept whole, not split.
    greedy_optimize:
        When False, skip the greedy merge/dissolve phases (Algorithm 2
        lines 4–5) and return the raw cliques + leftover triples.
        Exists for the ablation benchmark measuring what the greedy EV
        optimization buys.

    This function never touches the dataset: it post-processes the
    private selections, so it consumes no privacy budget (paper
    Section 4.4, "Step 4 does not access the dataset").
    """
    items = canonical_itemset(frequent_items)
    pairs = [canonical_itemset(pair) for pair in frequent_pairs]
    if any(len(pair) != 2 for pair in pairs):
        raise ValidationError("frequent_pairs must all have size 2")
    item_set = set(items)
    for pair in pairs:
        if not set(pair) <= item_set:
            raise ValidationError(
                f"pair {pair} contains items outside F"
            )
    if max_basis_length < 3:
        raise ValidationError(
            f"max_basis_length must be >= 3, got {max_basis_length}"
        )
    if not items:
        raise ValidationError("F must contain at least one item")

    # Queries whose EV the greedy phases minimize: F's singletons and P.
    queries: List[Itemset] = [(item,) for item in items] + pairs

    graph = UndirectedGraph.from_pairs(pairs, nodes=items)
    cliques = maximal_cliques(graph)
    group_one: List[Set[int]] = [
        set(clique) for clique in cliques if len(clique) >= 2
    ]
    paired_items = {item for pair in pairs for item in pair}
    leftovers = [item for item in items if item not in paired_items]
    group_two: List[Set[int]] = [
        set(leftovers[start:start + 3])
        for start in range(0, len(leftovers), 3)
    ]

    bases: Sequence[Iterable[int]] = group_one + group_two
    if greedy_optimize:
        # The scale must bound every length, cliques beyond the cap too.
        longest = max([max_basis_length] + [len(c) for c in group_one])
        scorer = _EVScorer(items, queries, scale=longest)
        members, clique_count = _greedy_merge(
            scorer, scorer.membership(bases), len(group_one), max_basis_length
        )
        bases = scorer.bases(_greedy_dissolve(
            scorer, members, clique_count, max_basis_length
        ))
    return BasisSet([tuple(sorted(basis)) for basis in bases]).simplified()


class _EVScorer:
    """:func:`average_case_ev` of many candidate configurations at once.

    A configuration is a bases × items membership matrix over ``F``.
    Basis ``b`` adds ``2^{-(|b|-|q|)}`` to the inverse-variance sum of
    each query ``q ⊆ b``: an exact int64 once scaled by ``2^scale``
    (``scale`` bounds every basis length), so a candidate's sums are
    the current ones minus the rows it drops plus the rows it adds.
    :meth:`evs` repeats ``average_case_ev``'s float steps, exactly while
    ``width · 2^scale < 2^53`` (bases of up to ~40 items).
    """

    def __init__(
        self, items: Itemset, queries: Sequence[Itemset], scale: int
    ) -> None:
        self.items, self.queries = items, queries
        self._column = {item: column for column, item in enumerate(items)}
        self._first = np.array([self._column[q[0]] for q in queries])
        self._last = np.array([self._column[q[-1]] for q in queries])
        self._shift = scale + np.array([len(query) for query in queries])
        self._unit = 2.0 ** -scale

    def membership(self, bases: Sequence[Iterable[int]]) -> np.ndarray:
        members = np.zeros((len(bases), len(self.items)), dtype=bool)
        for row, basis in enumerate(bases):
            members[row, [self._column[item] for item in basis]] = True
        return members

    def bases(self, members: np.ndarray) -> List[List[int]]:
        return [[self.items[column] for column in np.flatnonzero(row)]
                for row in members]

    def contributions(self, members: np.ndarray) -> np.ndarray:
        """Bases × queries, scaled ``2^{-(|b|-|q|)}`` or 0 if q ⊄ b."""
        covered = members[:, self._first] & members[:, self._last]
        shift = self._shift - members.sum(axis=1, keepdims=True)
        return np.where(covered, np.left_shift(1, shift), 0)

    def evs(self, inverse: np.ndarray, width: int) -> np.ndarray:
        """EV per row of per-query inverse sums: ``inf`` if a sum is 0;
        a sequential ``cumsum`` (not pairwise ``np.sum``) totals in
        query order as ``average_case_ev`` does."""
        with np.errstate(divide="ignore"):
            reciprocal = 1.0 / (inverse * self._unit)
        total = np.cumsum(reciprocal, axis=-1)[..., -1]
        return (width * width) * total / len(self.queries)


def _best_candidate(improvements: np.ndarray) -> int | None:
    """The candidate a scan in order keeps: each later one must beat
    the best so far by more than :data:`_EV_TOLERANCE`."""
    best, best_improvement = None, 0.0
    for index in np.flatnonzero(improvements > _EV_TOLERANCE).tolist():
        if improvements[index] > best_improvement + _EV_TOLERANCE:
            best, best_improvement = index, improvements[index]
    return best


def _greedy_merge(
    scorer: _EVScorer,
    members: np.ndarray,
    clique_count: int,
    max_basis_length: int,
) -> Tuple[np.ndarray, int]:
    """Algorithm 2 line 4: merge clique-bases while EV decreases.

    The clique-bases are the first rows of ``members``; each step
    scores every ``(i, j)`` merge, in lexicographic order, in arrays of
    at most :data:`_BLOCK_CELLS` candidate × query cells.
    """
    current = average_case_ev(scorer.bases(members), scorer.queries)
    while clique_count >= 2:
        first, second = np.triu_indices(clique_count, 1)
        contributions = scorer.contributions(members)
        total = contributions.sum(axis=0)
        evs = np.empty(len(first))
        step = max(1, _BLOCK_CELLS // len(scorer.queries))
        for start in range(0, len(first), step):
            i, j = first[start:start + step], second[start:start + step]
            merged = members[i] | members[j]
            inverse = total - contributions[i] - contributions[j]
            inverse += scorer.contributions(merged)
            evs[start:start + step] = np.where(  # vetoed merges score inf
                merged.sum(axis=1) <= max_basis_length,
                scorer.evs(inverse, len(members) - 1), math.inf,
            )
        best = _best_candidate(current - evs)
        if best is None:
            break
        i, j = first[best], second[best]
        kept = [row for row in range(clique_count) if row not in (i, j)]
        members = np.vstack(
            [members[kept], members[i] | members[j], members[clique_count:]]
        )
        clique_count, current = clique_count - 1, evs[best]
    return members, clique_count


def _greedy_dissolve(
    scorer: _EVScorer,
    members: np.ndarray,
    clique_count: int,
    max_basis_length: int,
) -> np.ndarray:
    """Algorithm 2 line 5: dissolve B2 bases into the smallest bases.

    The B2 bases are the rows after the cliques.  A candidate moves
    each item of its basis into the then-smallest other basis, so it
    changes only its own row and at most three home rows.
    """
    current = average_case_ev(scorer.bases(members), scorer.queries)
    while len(members) > clique_count:
        lengths = members.sum(axis=1).tolist()
        removed, owners, homes, grown = [], [], [], []
        for index in range(clique_count, len(members)):
            columns = np.flatnonzero(members[index])
            placement = _placement(lengths, index, columns, max_basis_length)
            if placement is None:
                continue
            for home, added in placement.items():
                owners.append(len(removed))
                homes.append(home)
                grown.append(members[home].copy())
                grown[-1][added] = True
            removed.append(index)
        if not removed:
            break
        rows = np.array(grown)
        contributions = scorer.contributions(members)
        inverse = contributions.sum(axis=0) - contributions[removed]
        np.add.at(
            inverse, owners, scorer.contributions(rows) - contributions[homes]
        )
        evs = scorer.evs(inverse, len(members) - 1)
        best = _best_candidate(current - evs)
        if best is None:
            break
        chosen = np.equal(owners, best)
        members[np.array(homes)[chosen]] = rows[chosen]
        members = np.delete(members, removed[best], axis=0)
        current = evs[best]
    return members


def _placement(
    lengths: List[int], index: int, columns: Sequence[int], cap: int
) -> Dict[int, List[int]] | None:
    """``{home: item columns}`` for dissolving basis ``index``: each
    item in turn joins the then-smallest other basis (first on ties).
    None when some item finds no basis shorter than the cap."""
    sizes: List[float] = list(lengths)
    sizes[index] = math.inf
    placement: Dict[int, List[int]] = {}
    for column in columns:
        home = min(range(len(sizes)), key=sizes.__getitem__)
        if sizes[home] >= cap:
            return None
        sizes[home] += 1
        placement.setdefault(home, []).append(column)
    return placement
