"""Cross-validation of the exact miners.

FP-Growth and the best-first top-k miner must agree with brute-force
counting on every database — this is the load-bearing guarantee behind
all ground-truth metrics.  FP-Growth is also checked against Apriori
(``apriori_reference``), an independent test-only oracle.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim.fpgrowth import fpgrowth
from repro.fim.topk import top_k_itemsets

from tests.conftest import brute_force_supports, brute_force_topk
from tests.fim.apriori_reference import (
    apriori,
    apriori_join,
    frequent_itemsets_sorted,
    has_all_subsets,
)

transactions_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
    min_size=1,
    max_size=30,
)


class TestAprioriBasics:
    def test_tiny_exact(self, tiny_db):
        mined = apriori(tiny_db, min_support=4)
        assert mined == {
            (0,): 6, (1,): 5, (2,): 4, (0, 1): 4, (0, 2): 4,
        }

    def test_max_length(self, tiny_db):
        mined = apriori(tiny_db, min_support=3, max_length=1)
        assert all(len(itemset) == 1 for itemset in mined)

    def test_min_support_one_required(self, tiny_db):
        with pytest.raises(ValidationError):
            apriori(tiny_db, min_support=0)

    def test_threshold_above_everything(self, tiny_db):
        assert apriori(tiny_db, min_support=100) == {}

    def test_sorted_helper(self, tiny_db):
        ranked = frequent_itemsets_sorted(apriori(tiny_db, 4))
        assert ranked[0] == ((0,), 6)
        supports = [support for _, support in ranked]
        assert supports == sorted(supports, reverse=True)


class TestAprioriJoin:
    def test_joins_shared_prefix(self):
        level = [(1, 2), (1, 3), (2, 3)]
        assert apriori_join(level) == [(1, 2, 3)]

    def test_prunes_missing_subset(self):
        # (1,2,3) needs (2,3) to be frequent; it is not.
        level = [(1, 2), (1, 3)]
        assert apriori_join(level) == []

    def test_singleton_level(self):
        level = [(1,), (2,), (5,)]
        assert apriori_join(level) == [(1, 2), (1, 5), (2, 5)]

    def test_empty_level(self):
        assert apriori_join([]) == []

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValidationError):
            apriori_join([(1,), (1, 2)])

    def test_has_all_subsets(self):
        frequent = {(1, 2), (1, 3), (2, 3)}
        assert has_all_subsets((1, 2, 3), frequent)
        assert not has_all_subsets((1, 2, 4), frequent)


class TestFPGrowthBasics:
    def test_tiny_exact(self, tiny_db):
        assert fpgrowth(tiny_db, min_support=4) == apriori(tiny_db, 4)

    def test_max_length(self, tiny_db):
        mined = fpgrowth(tiny_db, min_support=2, max_length=2)
        assert all(len(itemset) <= 2 for itemset in mined)
        assert mined == apriori(tiny_db, 2, max_length=2)

    def test_validation(self, tiny_db):
        with pytest.raises(ValidationError):
            fpgrowth(tiny_db, min_support=0)
        with pytest.raises(ValidationError):
            fpgrowth(tiny_db, min_support=1, max_length=0)

    def test_single_path_shortcut(self):
        # A chain-shaped database exercises the single-path branch.
        db = TransactionDatabase(
            [[0, 1, 2, 3]] * 5 + [[0, 1, 2]] * 3 + [[0, 1]] * 2 + [[0]],
            num_items=4,
        )
        assert fpgrowth(db, 2) == apriori(db, 2)


class TestMinersAgree:
    @given(transactions=transactions_strategy)
    @settings(max_examples=50, deadline=None)
    def test_apriori_equals_fpgrowth(self, transactions):
        db = TransactionDatabase(transactions, num_items=10)
        for threshold in (1, 2, 4):
            assert apriori(db, threshold) == fpgrowth(db, threshold)

    @given(transactions=transactions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_apriori_matches_brute_force(self, transactions):
        db = TransactionDatabase(transactions, num_items=10)
        mined = apriori(db, min_support=2)
        brute = {
            itemset: support
            for itemset, support in brute_force_supports(
                db, max_size=6
            ).items()
            if support >= 2
        }
        # brute_force_supports caps at size 6; transactions have ≤ 6
        # distinct items so this is complete.
        assert mined == brute

    @given(transactions=transactions_strategy)
    @settings(max_examples=40, deadline=None)
    def test_downward_closure(self, transactions):
        db = TransactionDatabase(transactions, num_items=10)
        mined = fpgrowth(db, min_support=2)
        for itemset in mined:
            for drop in range(len(itemset)):
                subset = itemset[:drop] + itemset[drop + 1:]
                if subset:
                    assert subset in mined
                    assert mined[subset] >= mined[itemset]


class TestTopK:
    def test_tiny_topk(self, tiny_db):
        top = top_k_itemsets(tiny_db, 3)
        assert top == [((0,), 6), ((1,), 5), ((0, 1), 4)]

    def test_max_length_restriction(self, tiny_db):
        top = top_k_itemsets(tiny_db, 4, max_length=1)
        assert [itemset for itemset, _ in top] == [
            (0,), (1,), (2,), (3,),
        ]

    def test_k_larger_than_universe(self):
        db = TransactionDatabase([[0], [0], [1]], num_items=2)
        top = top_k_itemsets(db, 50)
        # Only itemsets with positive support are returned; the pair
        # {0,1} never co-occurs.
        assert top == [((0,), 2), ((1,), 1)]

    def test_validation(self, tiny_db):
        with pytest.raises(ValidationError):
            top_k_itemsets(tiny_db, 0)

    def test_empty_database(self):
        db = TransactionDatabase([], num_items=4)
        assert top_k_itemsets(db, 3) == []

    @given(
        transactions=transactions_strategy,
        k=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, transactions, k):
        db = TransactionDatabase(transactions, num_items=10)
        fast = top_k_itemsets(db, k)
        brute = brute_force_topk(db, k, max_size=6)
        assert fast == brute

    def test_quest_database_consistency(self, small_db):
        top = top_k_itemsets(small_db, 40)
        assert len(top) == 40
        supports = [support for _, support in top]
        assert supports == sorted(supports, reverse=True)
        # Spot-check supports against direct counting.
        for itemset, support in top[:10]:
            assert small_db.support(itemset) == support
