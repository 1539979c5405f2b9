"""Tests for ConstructBasisSet (paper Algorithm 2)."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import construct_basis
from repro.core.basis import BasisSet
from repro.core.construct_basis import (
    _EV_TOLERANCE,
    _best_candidate,
    _EVScorer,
    construct_basis_set,
)
from repro.core.error_variance import average_case_ev
from repro.errors import ValidationError
from tests.core.construct_basis_reference import reference_basis_set
from tests.pipeline.strategies import PROFILE

#: Oracle-property examples per profile (``REPRO_PROPERTY_PROFILE``).
ORACLE_EXAMPLES = {"default": 150, "nightly": 1500}[PROFILE]


class TestValidation:
    def test_empty_items_rejected(self):
        with pytest.raises(ValidationError):
            construct_basis_set([], [])

    def test_pair_outside_f_rejected(self):
        with pytest.raises(ValidationError):
            construct_basis_set([1, 2], [(1, 9)])

    def test_non_pair_rejected(self):
        with pytest.raises(ValidationError):
            construct_basis_set([1, 2, 3], [(1, 2, 3)])

    def test_max_length_minimum(self):
        with pytest.raises(ValidationError):
            construct_basis_set([1], [], max_basis_length=2)


class TestStructure:
    def test_no_pairs_gives_triples(self):
        basis_set = construct_basis_set(range(7), [])
        # 7 leftover items → groups of ≤ 3; EV-dissolve may rearrange
        # but every item must be covered and length ≤ max.
        assert set(basis_set.items) == set(range(7))
        assert basis_set.length <= 12

    def test_single_item(self):
        basis_set = construct_basis_set([5], [])
        assert basis_set.bases == ((5,),)

    def test_clique_becomes_basis(self):
        # Triangle 1-2-3 plus isolated items 7, 8.
        basis_set = construct_basis_set(
            [1, 2, 3, 7, 8], [(1, 2), (1, 3), (2, 3)]
        )
        assert basis_set.covers((1, 2, 3))
        assert basis_set.covers((7,))
        assert basis_set.covers((8,))

    def test_every_input_pair_covered(self):
        items = list(range(10))
        pairs = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (8, 9)]
        basis_set = construct_basis_set(items, pairs)
        for pair in pairs:
            assert basis_set.covers(pair)

    def test_every_item_covered(self):
        items = list(range(15))
        pairs = [(0, 1), (2, 3)]
        basis_set = construct_basis_set(items, pairs)
        for item in items:
            assert basis_set.covers((item,))

    def test_length_cap_respected(self):
        # A large clique cannot be merged beyond the cap.
        items = list(range(8))
        pairs = [
            (i, j) for i in items for j in items if i < j
        ]
        basis_set = construct_basis_set(items, pairs, max_basis_length=8)
        assert basis_set.length <= 8

    def test_cap_does_not_split_cliques(self):
        # The cap vetoes greedy merges and dissolves only: a maximal
        # clique longer than it is kept whole, and the leftovers find
        # no home beside it.
        basis_set = construct_basis_set(
            range(5), combinations(range(4), 2), max_basis_length=3
        )
        assert basis_set == BasisSet([(0, 1, 2, 3), (4,)])
        thirteen = construct_basis_set(
            range(15), combinations(range(13), 2)
        )
        assert thirteen == BasisSet([tuple(range(13)), (13, 14)])
        assert thirteen.length == 13

    def test_no_subsumed_bases_in_output(self):
        items = list(range(6))
        pairs = [(0, 1), (1, 2), (0, 2), (3, 4)]
        basis_set = construct_basis_set(items, pairs)
        bases = [set(basis) for basis in basis_set]
        for i, left in enumerate(bases):
            for j, right in enumerate(bases):
                if i != j:
                    assert not left < right


class TestEVReasoning:
    def test_merging_overlapping_cliques_reduces_width(self):
        # Star pairs (0,1), (0,2): cliques {0,1} and {0,2}.  Merging
        # into {0,1,2} lowers the average EV (hand computation: 5.6 →
        # 3.2 in relative units), so greedy merging must take it.
        basis_set = construct_basis_set([0, 1, 2], [(0, 1), (0, 2)])
        assert basis_set.bases == ((0, 1, 2),)

    def test_disjoint_edges_stay_separate(self):
        # For 12 disjoint edges with pair queries, merging any two
        # (size-4 basis) strictly increases the average EV — the greedy
        # phase must leave them alone.
        items = list(range(24))
        pairs = [(2 * i, 2 * i + 1) for i in range(12)]
        basis_set = construct_basis_set(items, pairs)
        assert basis_set.width == 12
        assert basis_set.length == 2

    def test_output_ev_not_worse_than_initial(self):
        items = list(range(12))
        pairs = [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]
        basis_set = construct_basis_set(items, pairs)
        queries = [(item,) for item in items] + pairs
        final_ev = average_case_ev(list(basis_set), queries)
        # Initial configuration: cliques + leftover triples.
        from repro.graph.adjacency import UndirectedGraph
        from repro.graph.bron_kerbosch import maximal_cliques

        graph = UndirectedGraph.from_pairs(pairs, nodes=items)
        cliques = [
            clique for clique in maximal_cliques(graph)
            if len(clique) >= 2
        ]
        in_pairs = {item for pair in pairs for item in pair}
        leftovers = [item for item in items if item not in in_pairs]
        initial = cliques + [
            tuple(leftovers[start:start + 3])
            for start in range(0, len(leftovers), 3)
        ]
        initial_ev = average_case_ev(initial, queries)
        assert final_ev <= initial_ev + 1e-9

    @given(
        num_items=st.integers(min_value=1, max_value=14),
        pair_seeds=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=13),
                st.integers(min_value=0, max_value=13),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_coverage_invariant(self, num_items, pair_seeds):
        items = list(range(num_items))
        pairs = sorted(
            {
                (min(a, b), max(a, b))
                for a, b in pair_seeds
                if a != b and a < num_items and b < num_items
            }
        )
        basis_set = construct_basis_set(items, pairs)
        for item in items:
            assert basis_set.covers((item,))
        for pair in pairs:
            assert basis_set.covers(pair)
        assert basis_set.length <= 12


@st.composite
def basis_inputs(draw):
    """Random ``(F, P, ℓ)``; when ``|F| > ℓ``, P often holds a clique
    longer than the cap ℓ, which the greedy keeps whole."""
    items = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=1, max_size=40, unique=True,
        )
    )
    cap = draw(st.integers(min_value=3, max_value=12))
    candidates = list(combinations(sorted(items), 2))
    pairs = set()
    if candidates:
        pairs.update(
            draw(st.lists(st.sampled_from(candidates), max_size=15))
        )
    if len(items) > cap and draw(st.booleans()):
        clique = draw(
            st.lists(
                st.sampled_from(items),
                min_size=cap + 1,
                max_size=min(len(items), cap + 3),
                unique=True,
            )
        )
        pairs.update(combinations(sorted(clique), 2))
    return items, sorted(pairs), cap


class TestMatchesReferenceGreedy:
    """The incremental scorer must choose exactly the bases the
    from-scratch greedy (``construct_basis_reference``) chooses."""

    @staticmethod
    def assert_same_choice(items, pairs, cap):
        chosen = construct_basis_set(items, pairs, max_basis_length=cap)
        expected = reference_basis_set(items, pairs, max_basis_length=cap)
        assert chosen == expected
        queries = [(item,) for item in sorted(items)] + pairs
        assert average_case_ev(list(chosen), queries) == average_case_ev(
            list(expected), queries
        )

    @given(basis_inputs())
    @settings(max_examples=ORACLE_EXAMPLES, deadline=None)
    def test_random_inputs(self, case):
        self.assert_same_choice(*case)

    def test_tier_large_shaped_input(self):
        # λ = 102 items and |P| = 18 pairs: a hub item paired with 17
        # others plus one more edge, the shape tier-large releases at
        # k = 100 select.
        hub = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 18, 21]
        pairs = [(0, other) for other in hub] + [(1, 2)]
        self.assert_same_choice(list(range(102)), pairs, 12)

    def test_merge_candidates_scored_in_blocks(self, monkeypatch):
        # One candidate per block: the blocked scan must pick the same
        # merges as the single-array one.
        monkeypatch.setattr(construct_basis, "_BLOCK_CELLS", 1)
        self.test_tier_large_shaped_input()
        self.assert_same_choice(
            list(range(12)), [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)], 6
        )

    def test_greedy_off_returns_the_raw_cliques_and_triples(self):
        basis_set = construct_basis_set(
            range(8), [(0, 1), (0, 2), (1, 2)], greedy_optimize=False
        )
        assert basis_set == BasisSet([(0, 1, 2), (3, 4, 5), (6, 7)])


class TestScorerPins:
    """White-box pins of the two rules the identical choices rest on."""

    @given(basis_inputs(), st.randoms(use_true_random=False))
    @settings(max_examples=ORACLE_EXAMPLES, deadline=None)
    def test_scorer_floats_equal_average_case_ev(self, case, random):
        items, pairs, cap = case
        queries = [(item,) for item in sorted(items)] + pairs
        bases = [
            random.sample(items, random.randint(1, min(len(items), cap)))
            for _ in range(random.randint(1, 12))
        ]
        scorer = _EVScorer(tuple(sorted(items)), queries, scale=cap)
        inverse = scorer.contributions(scorer.membership(bases)).sum(axis=0)
        assert scorer.evs(inverse, len(bases)) == average_case_ev(
            bases, queries
        )

    @given(
        st.lists(
            st.sampled_from(
                [-math.inf, -1.0, 0.0, 5e-13, 1.0, 1.0 + 5e-13,
                 1.0 + 1.5e-12, 1.0 + 3e-12, 2.0]
            ),
            max_size=12,
        )
    )
    def test_best_candidate_is_the_in_order_scan(self, improvements):
        best, best_improvement = None, 0.0
        for index, improvement in enumerate(improvements):
            if improvement > best_improvement + _EV_TOLERANCE:
                best, best_improvement = index, improvement
        assert _best_candidate(np.array(improvements, dtype=float)) == best
