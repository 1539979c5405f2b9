"""Tests for the TransactionDatabase data structure."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_itemset,
)
from repro.errors import ValidationError

transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=15), max_size=8),
    min_size=0,
    max_size=25,
)


class TestConstruction:
    def test_shape(self, tiny_db):
        assert tiny_db.num_transactions == 8
        assert tiny_db.num_items == 5
        assert len(tiny_db) == 8

    def test_duplicates_collapse(self):
        db = TransactionDatabase([[1, 1, 2, 2, 2]])
        assert db.transaction(0) == (1, 2)

    def test_transactions_sorted(self):
        db = TransactionDatabase([[3, 1, 2]])
        assert db.transaction(0) == (1, 2, 3)

    def test_negative_item_rejected(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([[-1]])

    def test_num_items_must_cover_max(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([[5]], num_items=5)

    def test_vocabulary_may_exceed_observed(self):
        db = TransactionDatabase([[0]], num_items=100)
        assert db.num_items == 100
        assert db.support([99]) == 0

    def test_labels_length_checked(self):
        with pytest.raises(ValidationError):
            TransactionDatabase([[0, 1]], item_labels=["only-one"])

    def test_empty_database(self):
        db = TransactionDatabase([], num_items=3)
        assert db.num_transactions == 0
        assert db.avg_transaction_length == 0.0
        assert db.frequency([0]) == 0.0

    def test_empty_transaction_allowed(self):
        db = TransactionDatabase([[], [0]], num_items=1)
        assert db.transaction(0) == ()
        assert db.support([0]) == 1


class TestFromSortedRows:
    def test_equivalent_to_regular_construction(self):
        rows = [np.array([0, 2]), np.array([1]), np.array([0, 1, 2])]
        fast = TransactionDatabase.from_sorted_rows(rows, num_items=3)
        slow = TransactionDatabase([[0, 2], [1], [0, 1, 2]], num_items=3)
        assert list(fast) == list(slow)
        assert fast.support([0, 2]) == slow.support([0, 2])

    def test_rejects_unsorted_spot_check(self):
        with pytest.raises(ValidationError):
            TransactionDatabase.from_sorted_rows(
                [np.array([2, 1])], num_items=3
            )

    def test_rejects_out_of_range_spot_check(self):
        with pytest.raises(ValidationError):
            TransactionDatabase.from_sorted_rows(
                [np.array([0, 7])], num_items=3
            )


class TestSupports:
    def test_tiny_supports(self, tiny_db):
        assert tiny_db.support([0]) == 6
        assert tiny_db.support([0, 1]) == 4
        assert tiny_db.support([0, 1, 2]) == 3
        assert tiny_db.support([4]) == 2
        assert tiny_db.support([0, 4]) == 0

    def test_empty_itemset_support_is_n(self, tiny_db):
        assert tiny_db.support([]) == 8

    def test_frequency(self, tiny_db):
        assert tiny_db.frequency([0]) == pytest.approx(6 / 8)

    def test_item_supports_vector(self, tiny_db):
        supports = tiny_db.item_supports()
        assert supports.tolist() == [6, 5, 4, 3, 2]

    def test_item_supports_copy_is_safe(self, tiny_db):
        tiny_db.item_supports()[0] = -99
        assert tiny_db.item_supports()[0] == 6

    def test_item_frequencies(self, tiny_db):
        assert tiny_db.item_frequencies()[2] == pytest.approx(0.5)

    def test_supports_bulk(self, tiny_db):
        assert tiny_db.supports([(0,), (0, 1)]) == [6, 4]

    def test_out_of_range_item(self, tiny_db):
        with pytest.raises(ValidationError):
            tiny_db.support([9])


class TestTidlists:
    def test_tidlist_content(self, tiny_db):
        assert tiny_db.tidlist(3).tolist() == [2, 3, 7]

    def test_tidlists_sorted_unique(self, tiny_db):
        for item in range(5):
            tids = tiny_db.tidlist(item)
            assert np.all(np.diff(tids) > 0)

    def test_covering_tids(self, tiny_db):
        assert tiny_db.covering_tids([0, 1]).tolist() == [0, 1, 2, 3]

    def test_covering_tids_empty_itemset(self, tiny_db):
        assert tiny_db.covering_tids([]).tolist() == list(range(8))


class TestProject:
    def test_projection_removes_other_items(self, tiny_db):
        projected = tiny_db.project([0, 1])
        assert projected.transaction(0) == (0, 1)
        assert projected.num_transactions == 8
        assert projected.num_items == 5  # vocabulary preserved

    def test_projection_preserves_projected_supports(self, tiny_db):
        projected = tiny_db.project([0, 1])
        assert projected.support([0, 1]) == tiny_db.support([0, 1])
        assert projected.support([2]) == 0

    def test_projection_validates_items(self, tiny_db):
        with pytest.raises(ValidationError):
            tiny_db.project([77])


class TestLabels:
    def test_from_labeled_transactions(self):
        db = TransactionDatabase.from_labeled_transactions(
            [["milk", "bread"], ["milk"]]
        )
        assert db.num_items == 2
        assert db.item_labels == ("milk", "bread")
        assert db.support([0]) == 2

    def test_relabel(self, tiny_db):
        labeled = tiny_db.relabel(["a", "b", "c", "d", "e"])
        assert labeled.item_labels == ("a", "b", "c", "d", "e")
        assert labeled.support([0]) == tiny_db.support([0])


class TestCanonicalItemset:
    def test_sorts_and_dedupes(self):
        assert canonical_itemset([3, 1, 3, 2]) == (1, 2, 3)

    def test_empty(self):
        assert canonical_itemset([]) == ()


def random_rows(seed: int, count: int, num_items: int = 12):
    rng = np.random.default_rng(seed)
    member = rng.random((count, num_items)) < 0.35
    return [np.flatnonzero(row).tolist() for row in member]


class TestExtended:
    """``extended`` — the append substrate beneath every backend's
    incremental ``extend`` path."""

    def test_base_survives_extension_bit_identical(self):
        base = TransactionDatabase(random_rows(7, 8), num_items=12)
        supports_before = base.item_supports()
        grown = base.extended(
            TransactionDatabase(random_rows(8, 5), num_items=12)
        )
        np.testing.assert_array_equal(
            base.item_supports(), supports_before
        )
        assert base.num_transactions == 8
        assert grown.num_transactions == 13

    def test_warm_state_carries_over_and_matches_cold(self):
        rows = random_rows(9, 30)
        warm = TransactionDatabase(rows[:20], num_items=12)
        warm.item_supports()
        warm.tidlist(3)  # force the inverted index
        warm = warm.extended(TransactionDatabase(rows[20:], num_items=12))
        cold = TransactionDatabase(rows, num_items=12)
        np.testing.assert_array_equal(
            warm.item_supports(), cold.item_supports()
        )
        for item in range(12):
            np.testing.assert_array_equal(
                warm.tidlist(item), cold.tidlist(item)
            )
        assert warm.support([0, 3]) == cold.support([0, 3])

    def test_prefix_slices_are_views_of_the_head(self):
        rows = random_rows(10, 3)
        head = TransactionDatabase(rows, num_items=12)
        for seed in range(20):
            head = head.extended(
                TransactionDatabase(random_rows(100 + seed, 2), num_items=12)
            )
        old = head.slice(0, 3)
        assert list(old) == [tuple(row) for row in rows]
        assert np.shares_memory(old.items, head.items)

    def test_preserves_labels_and_rejects_mismatch(self):
        labels = [f"item{i}" for i in range(5)]
        base = TransactionDatabase(
            [[0, 1], [2]], num_items=5, item_labels=labels
        )
        grown = base.extended(
            TransactionDatabase([[3, 4]], num_items=5)
        )
        assert grown.item_labels == tuple(labels)
        assert grown.num_transactions == 3
        with pytest.raises(ValidationError):
            base.extended(TransactionDatabase([[0]], num_items=4))

    def test_with_empty_sides(self):
        base = TransactionDatabase([[0, 1]], num_items=3)
        empty = TransactionDatabase([], num_items=3)
        base.item_supports()
        base.tidlist(0)
        grown = base.extended(empty)
        assert grown.num_transactions == 1
        grown_other = empty.extended(base)
        assert grown_other.num_transactions == 1
        np.testing.assert_array_equal(
            grown_other.item_supports(), base.item_supports()
        )


class TestHypothesisInvariants:
    @given(transactions=transactions_strategy)
    @settings(max_examples=60)
    def test_support_equals_naive_count(self, transactions):
        db = TransactionDatabase(transactions, num_items=16)
        rows = [set(t) for t in transactions]
        for itemset in [(0,), (1, 2), (0, 3, 5)]:
            naive = sum(1 for row in rows if set(itemset) <= row)
            assert db.support(itemset) == naive

    @given(transactions=transactions_strategy)
    @settings(max_examples=60)
    def test_item_supports_match_tidlists(self, transactions):
        db = TransactionDatabase(transactions, num_items=16)
        supports = db.item_supports()
        for item in range(16):
            assert supports[item] == db.tidlist(item).size

    @given(transactions=transactions_strategy)
    @settings(max_examples=40)
    def test_support_antimonotone(self, transactions):
        db = TransactionDatabase(transactions, num_items=16)
        assert db.support([1, 2]) <= db.support([1])
        assert db.support([1, 2, 3]) <= db.support([1, 2])

    @given(transactions=transactions_strategy)
    @settings(max_examples=40)
    def test_total_size_is_sum_of_lengths(self, transactions):
        db = TransactionDatabase(transactions, num_items=16)
        assert db.total_size == sum(
            len(set(t)) for t in transactions
        )
