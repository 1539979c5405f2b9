"""CSR storage equivalence: a database is exactly the rows it packs.

``TransactionDatabase`` stores one CSR layout (row offsets + items, plus
an item-major tid-list index).  This property suite packs random sorted
rows — empty rows, empty databases and one-item vocabularies included —
by hand into ``(offsets, items)`` and checks that a ``from_csr``
database answers every query the way the plain Python rows do, with
and without a ready-made index, and after ``slice`` / ``extended`` /
``project``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.fim.counting import ItemBitmaps, bin_counts_for_items


@st.composite
def row_sets(draw, num_items=None):
    """``(num_items, rows)`` with rows as sorted tuples of item ids."""
    if num_items is None:
        num_items = draw(st.integers(min_value=1, max_value=7))
    rows = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=num_items - 1)),
            max_size=24,
        )
    )
    return num_items, [tuple(sorted(row)) for row in rows]


def pack(rows):
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    offsets[1:] = np.cumsum([len(row) for row in rows])
    items = np.array([item for row in rows for item in row], dtype=np.int64)
    return offsets, items


def naive_tidlist(rows, item):
    return [tid for tid, row in enumerate(rows) if item in row]


def naive_support(rows, itemset):
    return sum(1 for row in rows if set(itemset) <= set(row))


def assert_matches_rows(database, rows, num_items):
    """Every query of ``database`` against the Python ``rows`` oracle."""
    assert database.num_transactions == len(rows)
    assert database.num_items == num_items
    assert database.total_size == sum(len(row) for row in rows)
    assert list(database) == rows
    assert [tuple(row.tolist()) for row in database.rows] == rows
    for tid, row in enumerate(rows):
        assert database.transaction(tid) == row
    assert database.item_supports().tolist() == [
        len(naive_tidlist(rows, item)) for item in range(num_items)
    ]
    for item in range(num_items):
        assert database.tidlist(item).tolist() == naive_tidlist(rows, item)
    vocabulary = list(range(num_items))
    for size in (1, 2, 3):
        for itemset in combinations(vocabulary, size):
            assert database.support(itemset) == naive_support(rows, itemset)
    assert database.support(()) == len(rows)
    basis = vocabulary[:3]
    want = np.zeros(1 << len(basis), dtype=np.int64)
    for row in rows:
        mask = sum(1 << bit for bit, item in enumerate(basis) if item in row)
        want[mask] += 1
    np.testing.assert_array_equal(bin_counts_for_items(database, basis), want)
    want = np.zeros((num_items, num_items), dtype=np.int64)
    for first, second in combinations(vocabulary, 2):
        want[first, second] = naive_support(rows, (first, second))
    np.testing.assert_array_equal(
        ItemBitmaps(database, vocabulary).pairwise_supports(), want
    )


@settings(max_examples=60, deadline=None)
@given(row_sets())
def test_from_csr_matches_its_rows(case):
    num_items, rows = case
    offsets, items = pack(rows)
    assert_matches_rows(
        TransactionDatabase.from_csr(offsets, items, num_items),
        rows, num_items,
    )
    # The same arrays with a ready-made index answer identically.
    reference = TransactionDatabase(rows, num_items=num_items)
    indexed = TransactionDatabase.from_csr(
        offsets, items, num_items, index=reference.index
    )
    assert_matches_rows(indexed, rows, num_items)
    assert_matches_rows(
        TransactionDatabase.from_sorted_rows(
            [np.array(row, dtype=np.int64) for row in rows], num_items
        ),
        rows, num_items,
    )


@settings(max_examples=60, deadline=None)
@given(row_sets(), st.data())
def test_slice_and_project_match_their_rows(case, data):
    num_items, rows = case
    database = TransactionDatabase.from_csr(*pack(rows), num_items)
    start = data.draw(st.integers(0, len(rows)))
    stop = data.draw(st.integers(start, len(rows)))
    assert_matches_rows(
        database.slice(start, stop), rows[start:stop], num_items
    )
    keep = data.draw(st.sets(st.integers(0, num_items - 1)))
    assert_matches_rows(
        database.project(keep),
        [tuple(item for item in row if item in keep) for row in rows],
        num_items,
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.tuples(row_sets(n), row_sets(n))
), st.booleans())
def test_extended_matches_concatenated_rows(cases, warm):
    (num_items, rows), (_, delta_rows) = cases
    database = TransactionDatabase.from_csr(*pack(rows), num_items)
    if warm:
        database.item_supports()
        database.tidlist(0)  # build the index, so it is merged
    delta = TransactionDatabase.from_csr(*pack(delta_rows), num_items)
    combined = database.extended(delta)
    assert (combined._index is not None) == warm
    assert_matches_rows(combined, rows + delta_rows, num_items)
    # Both inputs are untouched.
    assert_matches_rows(database, rows, num_items)
    assert_matches_rows(delta, delta_rows, num_items)


def test_arrays_are_shared_and_read_only():
    offsets, items = pack([(0, 2), (), (1,)])
    database = TransactionDatabase.from_csr(offsets, items, 3)
    assert np.shares_memory(database.items, items)
    assert np.shares_memory(database.offsets, offsets)
    assert not database.items.flags.writeable
    assert not database.tidlist(0).flags.writeable


def test_index_over_a_vocabulary_wider_than_16_bits():
    rows = [(3, 65_535, 69_999), (), (65_536,), (3, 69_999)]
    database = TransactionDatabase(rows, num_items=70_000)
    for item in (0, 3, 65_535, 65_536, 65_537, 69_999):
        assert database.tidlist(item).tolist() == naive_tidlist(rows, item)
