"""Tests for the FP-tree that FP-Growth mines.

FP-Growth's output is only as good as the tree's counters, header
chains and conditional pattern bases, so these are checked directly:
by hand on the tiny database and against brute-force pair counts on
random ones.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.fim.fptree import FPNode, FPTree

from tests.conftest import TINY_TRANSACTIONS

#: The tiny database's items by descending support (6, 5, 4, 3, 2).
TINY_ORDER = [0, 1, 2, 3, 4]


def tiny_tree() -> FPTree:
    tree = FPTree(TINY_ORDER)
    for transaction in TINY_TRANSACTIONS:
        tree.insert(transaction)
    return tree


class TestInsert:
    def test_shared_prefixes_collapse(self):
        tree = FPTree([0, 1, 2])
        tree.insert((0, 1, 2))
        tree.insert((0, 1))
        assert list(tree.root.children) == [0]
        node0 = tree.root.children[0]
        assert node0.count == 2
        node1 = node0.children[1]
        assert node1.count == 2
        assert node1.children[2].count == 1

    def test_path_follows_item_order_and_ignores_duplicates(self):
        tree = FPTree([2, 0, 1])
        tree.insert([1, 0, 2, 2, 1])
        assert tree.single_path() == [(2, 1), (0, 1), (1, 1)]

    def test_items_outside_the_order_are_dropped(self):
        tree = FPTree([0, 1])
        tree.insert((0, 7, 1, 9))
        assert tree.single_path() == [(0, 1), (1, 1)]
        assert set(tree.item_totals) == {0, 1}

    def test_transaction_of_unknown_items_leaves_tree_empty(self):
        tree = FPTree([0, 1])
        assert tree.is_empty()
        tree.insert((5, 6))
        tree.insert(())
        assert tree.is_empty()
        assert tree.item_totals == {}

    def test_count_is_a_multiplicity(self):
        tree = FPTree([0, 1])
        tree.insert((0, 1), count=3)
        tree.insert((0,), count=2)
        assert tree.single_path() == [(0, 5), (1, 3)]
        assert tree.item_totals == {0: 5, 1: 3}

    def test_numpy_items_are_accepted(self):
        tree = FPTree(np.array([1, 0], dtype=np.int64))
        tree.insert(np.array([0, 1], dtype=np.int32))
        assert tree.item_order == [1, 0]
        assert tree.single_path() == [(1, 1), (0, 1)]

    def test_item_totals_are_the_item_supports(self, tiny_db):
        tree = tiny_tree()
        supports = tiny_db.item_supports()
        assert tree.item_totals == {
            item: int(supports[item]) for item in TINY_ORDER
        }


class TestHeaderChains:
    def test_chain_visits_every_node_of_the_item(self):
        tree = tiny_tree()
        for item in TINY_ORDER:
            nodes = list(tree.nodes_of(item))
            assert nodes
            assert all(node.item == item for node in nodes)
            assert sum(node.count for node in nodes) == (
                tree.item_totals[item]
            )

    def test_chain_is_in_creation_order(self):
        tree = tiny_tree()
        # Item 3's nodes are created by (0,1,2,3), (0,1,3), then (3,4).
        paths = [tree.prefix_path(node) for node in tree.nodes_of(3)]
        assert paths == [[0, 1, 2], [0, 1], []]

    def test_unknown_item_has_no_nodes(self):
        assert list(tiny_tree().nodes_of(42)) == []

    def test_prefix_path_runs_root_to_parent(self):
        tree = tiny_tree()
        leaf = tree.root.children[0].children[1].children[2].children[3]
        assert leaf.item == 3
        assert tree.prefix_path(leaf) == [0, 1, 2]
        assert tree.prefix_path(tree.root.children[0]) == []


class TestConditionalPatternBase:
    def test_by_hand(self):
        tree = tiny_tree()
        assert tree.conditional_pattern_base(2) == [([0, 1], 3), ([0], 1)]
        assert tree.conditional_pattern_base(4) == [([1], 1), ([3], 1)]
        assert tree.conditional_pattern_base(3) == [
            ([0, 1, 2], 1),
            ([0, 1], 1),
        ]

    def test_root_children_contribute_no_path(self):
        # Every 0 node hangs off the root: its base is empty.
        assert tiny_tree().conditional_pattern_base(0) == []

    @given(
        transactions=st.lists(
            st.lists(st.integers(min_value=0, max_value=7), max_size=6),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_base_counts_pair_supports(self, transactions):
        db = TransactionDatabase(transactions, num_items=8)
        supports = db.item_supports()
        order = sorted(range(8), key=lambda item: (-int(supports[item]), item))
        tree = FPTree(order)
        for transaction in db:
            tree.insert(transaction)
        rows = [set(row) for row in transactions]
        for rank, item in enumerate(order):
            base = tree.conditional_pattern_base(item)
            for path, _ in base:
                # Paths hold only items laid out before ``item``.
                assert all(order.index(p) < rank for p in path)
            for other in order[:rank]:
                expected = sum(1 for row in rows if {item, other} <= row)
                assert sum(c for path, c in base if other in path) == expected


class TestSinglePath:
    def test_empty_tree_is_an_empty_chain(self):
        assert FPTree([0, 1]).single_path() == []

    def test_branching_tree_is_not_a_chain(self):
        assert tiny_tree().single_path() is None

    def test_branch_below_the_root(self):
        tree = FPTree([0, 1, 2])
        tree.insert((0, 1))
        tree.insert((0, 2))
        assert tree.single_path() is None

    def test_chain_counts_are_non_increasing(self):
        tree = FPTree([0, 1, 2])
        tree.insert((0, 1, 2))
        tree.insert((0, 1))
        tree.insert((0,))
        assert tree.single_path() == [(0, 3), (1, 2), (2, 1)]


def test_node_repr():
    node = FPNode(3, None)
    node.count = 4
    assert repr(node) == "FPNode(item=3, count=4)"
