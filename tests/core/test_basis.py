"""Tests for BasisSet (paper Definitions 2–3, Propositions 2 and 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.basis import BasisSet, single_basis
from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.topk import frequent_itemsets


class TestShape:
    def test_width_and_length(self):
        basis_set = BasisSet([(1, 2, 3), (4, 5)])
        assert basis_set.width == 2
        assert basis_set.length == 3

    def test_items(self):
        assert BasisSet([(3, 1), (2,)]).items == (1, 2, 3)

    def test_bases_canonicalized(self):
        assert BasisSet([(3, 1, 3)]).bases == ((1, 3),)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValidationError):
            BasisSet([()])

    def test_equality_ignores_order(self):
        assert BasisSet([(1, 2), (3,)]) == BasisSet([(3,), (1, 2)])
        assert hash(BasisSet([(1, 2), (3,)])) == hash(
            BasisSet([(3,), (1, 2)])
        )

    def test_indexing_and_iteration(self):
        basis_set = BasisSet([(1, 2), (3,)])
        assert basis_set[0] == (1, 2)
        assert list(basis_set) == [(1, 2), (3,)]
        assert len(basis_set) == 2


class TestCovering:
    def test_covers(self):
        basis_set = BasisSet([(1, 2, 3), (4, 5)])
        assert basis_set.covers((1, 3))
        assert basis_set.covers((4,))
        assert not basis_set.covers((3, 4))

    def test_covering_bases_indices(self):
        basis_set = BasisSet([(1, 2), (2, 3), (1, 2, 4)])
        assert basis_set.covering_bases((2,)) == [0, 1, 2]
        assert basis_set.covering_bases((1, 2)) == [0, 2]

    def test_empty_itemset_covered_by_all(self):
        basis_set = BasisSet([(1,), (2,)])
        assert basis_set.covering_bases(()) == [0, 1]


class TestCandidateSet:
    def test_counts_unique_subsets(self):
        basis_set = BasisSet([(1, 2), (2, 3)])
        candidates = basis_set.candidate_set()
        assert candidates == [
            (1,), (2,), (3,), (1, 2), (2, 3),
        ]

    def test_candidate_count(self):
        assert BasisSet([(1, 2, 3)]).candidate_count() == 7

    def test_all_candidates_covered(self):
        basis_set = BasisSet([(1, 2, 3), (3, 4)])
        for candidate in basis_set.candidate_set():
            assert basis_set.covers(candidate)


class TestThetaBasisVerification:
    def test_single_basis_of_frequent_items(self, dense_db):
        # Proposition 2: all θ-frequent items form a width-1 θ-basis.
        theta = 0.3
        min_support = int(theta * dense_db.num_transactions + 0.999)
        supports = dense_db.item_supports()
        frequent_items = [
            item for item in range(dense_db.num_items)
            if supports[item] >= min_support
        ]
        basis_set = single_basis(frequent_items)
        assert basis_set.width == 1
        assert basis_set.is_theta_basis_for(dense_db, theta)

    def test_mined_itemsets_form_a_theta_basis(self, dense_db):
        # The θ-frequent itemsets, each its own basis, cover every
        # θ-frequent itemset; without a longest one (no other frequent
        # itemset contains it) the set stops being a θ-basis.
        theta = 0.3
        min_support = int(theta * dense_db.num_transactions + 0.999)
        frequent = list(frequent_itemsets(dense_db, min_support))
        longest = max(frequent, key=len)
        assert len(longest) > 1
        assert BasisSet(frequent).is_theta_basis_for(dense_db, theta)
        rest = [itemset for itemset in frequent if itemset != longest]
        assert not BasisSet(rest).is_theta_basis_for(dense_db, theta)

    def test_insufficient_basis_detected(self, dense_db):
        # A basis missing the planted block cannot cover θ = 0.3.
        basis_set = BasisSet([(6, 7, 8)])
        assert not basis_set.is_theta_basis_for(dense_db, 0.3)

    def test_theta_validation(self, tiny_db):
        with pytest.raises(ValidationError):
            BasisSet([(0,)]).is_theta_basis_for(tiny_db, 0.0)


class TestTransformations:
    def test_merge_preserves_items(self):
        merged = BasisSet([(1, 2), (2, 3), (5,)]).merged(0, 1)
        assert merged.width == 2
        assert (1, 2, 3) in merged.bases

    def test_merge_self_rejected(self):
        with pytest.raises(ValidationError):
            BasisSet([(1,), (2,)]).merged(1, 1)

    def test_simplified_drops_subsumed(self):
        simplified = BasisSet([(1, 2), (1, 2, 3), (1, 2)]).simplified()
        assert simplified.bases == ((1, 2, 3),)

    def test_enforce_max_length_splits(self):
        capped = BasisSet([(1, 2, 3, 4, 5)]).enforce_max_length(2)
        assert capped.length <= 2
        assert set(capped.items) == {1, 2, 3, 4, 5}

    def test_enforce_max_length_validation(self):
        with pytest.raises(ValidationError):
            BasisSet([(1,)]).enforce_max_length(0)

    @given(
        bases=st.lists(
            st.sets(
                st.integers(min_value=0, max_value=12), min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=5,
        )
    )
    @settings(max_examples=50)
    def test_merge_preserves_coverage(self, bases):
        # Proposition 4: merging two bases keeps every covered itemset
        # covered.
        basis_set = BasisSet([tuple(sorted(basis)) for basis in bases])
        merged = basis_set.merged(0, 1)
        for candidate in basis_set.candidate_set():
            assert merged.covers(candidate)
        assert merged.width == basis_set.width - 1
