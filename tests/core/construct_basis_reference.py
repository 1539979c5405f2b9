"""Reference greedy for ConstructBasisSet (paper Algorithm 2, lines 4–5).

The loops ``repro.core.construct_basis`` ran before it scored greedy
candidates incrementally, kept verbatim: each candidate configuration
is rebuilt and scored from scratch by :func:`average_case_ev`.  The
oracle property in ``test_construct_basis.py`` requires the library to
choose exactly the bases these loops choose.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.core.basis import DEFAULT_MAX_BASIS_LENGTH, BasisSet
from repro.core.construct_basis import _EV_TOLERANCE
from repro.core.error_variance import average_case_ev
from repro.fim.itemsets import Itemset, canonical_itemset
from repro.graph.adjacency import UndirectedGraph
from repro.graph.bron_kerbosch import maximal_cliques


def reference_basis_set(
    frequent_items: Iterable[int],
    frequent_pairs: Iterable[Itemset],
    max_basis_length: int = DEFAULT_MAX_BASIS_LENGTH,
) -> BasisSet:
    """``construct_basis_set`` with the from-scratch greedy (inputs are
    assumed valid)."""
    items = canonical_itemset(frequent_items)
    pairs = [canonical_itemset(pair) for pair in frequent_pairs]
    queries: List[Itemset] = [(item,) for item in items] + pairs
    graph = UndirectedGraph.from_pairs(pairs, nodes=items)
    group_one: List[Set[int]] = [
        set(clique) for clique in maximal_cliques(graph) if len(clique) >= 2
    ]
    paired_items = {item for pair in pairs for item in pair}
    leftovers = [item for item in items if item not in paired_items]
    group_two: List[Set[int]] = [
        set(leftovers[start:start + 3])
        for start in range(0, len(leftovers), 3)
    ]
    group_one = _greedy_merge(
        group_one, group_two, queries, max_basis_length
    )
    group_one, group_two = _greedy_dissolve(
        group_one, group_two, queries, max_basis_length
    )
    return BasisSet(
        [tuple(sorted(basis)) for basis in group_one + group_two]
    ).simplified()


def _greedy_merge(
    group_one: List[Set[int]],
    group_two: List[Set[int]],
    queries: Sequence[Itemset],
    max_basis_length: int,
) -> List[Set[int]]:
    """Algorithm 2 line 4: merge clique-bases while EV decreases."""
    current = average_case_ev(group_one + group_two, queries)
    while len(group_one) >= 2:
        best_improvement = 0.0
        best_pair: Tuple[int, int] | None = None
        best_ev = current
        for i in range(len(group_one)):
            for j in range(i + 1, len(group_one)):
                merged = group_one[i] | group_one[j]
                if len(merged) > max_basis_length:
                    continue
                candidate = (
                    [
                        basis
                        for index, basis in enumerate(group_one)
                        if index not in (i, j)
                    ]
                    + [merged]
                    + group_two
                )
                candidate_ev = average_case_ev(candidate, queries)
                improvement = current - candidate_ev
                if improvement > best_improvement + _EV_TOLERANCE:
                    best_improvement = improvement
                    best_pair = (i, j)
                    best_ev = candidate_ev
        if best_pair is None:
            break
        i, j = best_pair
        merged = group_one[i] | group_one[j]
        group_one = [
            basis
            for index, basis in enumerate(group_one)
            if index not in (i, j)
        ] + [merged]
        current = best_ev
    return group_one


def _greedy_dissolve(
    group_one: List[Set[int]],
    group_two: List[Set[int]],
    queries: Sequence[Itemset],
    max_basis_length: int,
) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Algorithm 2 line 5: dissolve B2 bases into the smallest bases."""
    current = average_case_ev(group_one + group_two, queries)
    while group_two:
        best_improvement = 0.0
        best_candidate: Tuple[
            int, List[Set[int]], List[Set[int]], float
        ] | None = None
        for index in range(len(group_two)):
            candidate = _dissolve_one(
                group_one, group_two, index, max_basis_length
            )
            if candidate is None:
                continue
            candidate_one, candidate_two = candidate
            candidate_ev = average_case_ev(
                candidate_one + candidate_two, queries
            )
            improvement = current - candidate_ev
            if improvement > best_improvement + _EV_TOLERANCE:
                best_improvement = improvement
                best_candidate = (
                    index, candidate_one, candidate_two, candidate_ev
                )
        if best_candidate is None:
            break
        _, group_one, group_two, current = best_candidate
    return group_one, group_two


def _dissolve_one(
    group_one: List[Set[int]],
    group_two: List[Set[int]],
    index: int,
    max_basis_length: int,
) -> Tuple[List[Set[int]], List[Set[int]]] | None:
    """Remove ``group_two[index]``, placing each of its items into the
    currently smallest basis with room (re-evaluated per item).

    Returns None when some item cannot be placed without violating the
    length cap.
    """
    candidate_one = [set(basis) for basis in group_one]
    candidate_two = [
        set(basis)
        for position, basis in enumerate(group_two)
        if position != index
    ]
    homes = candidate_one + candidate_two
    if not homes:
        return None
    for item in sorted(group_two[index]):
        target = min(homes, key=len)
        if len(target) >= max_basis_length:
            return None
        target.add(item)
    return candidate_one, candidate_two
