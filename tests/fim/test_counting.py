"""Tests for the bitmap and bin-counting kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError
from repro.fim import counting
from repro.fim.counting import (
    ItemBitmaps,
    bin_counts_for_items,
    naive_superset_sum,
    superset_sum_transform,
)


def popcount(row: np.ndarray) -> int:
    return int(np.bitwise_count(row).sum())


class TestItemBitmaps:
    def test_conjunction_row_matches_database(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [0, 1, 2, 3, 4])
        for itemset in [(0,), (0, 1), (0, 1, 2), (0, 4)]:
            assert popcount(bitmaps.conjunction_row(itemset)) == (
                tiny_db.support(itemset)
            )

    def test_empty_conjunction_is_n(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [0, 1])
        assert popcount(bitmaps.conjunction_row([])) == 8

    def test_duplicate_items_rejected(self, tiny_db):
        with pytest.raises(ValidationError):
            ItemBitmaps(tiny_db, [0, 0])

    def test_item_outside_pool(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [0, 1])
        with pytest.raises(ValidationError):
            bitmaps.conjunction_row([3])

    def test_pairwise_supports(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [0, 1, 2, 3])
        pairwise = bitmaps.pairwise_supports()
        assert pairwise.shape == (4, 4) and pairwise.dtype == np.int64
        assert pairwise[0, 1] == tiny_db.support([0, 1])
        assert pairwise[2, 3] == tiny_db.support([2, 3])
        assert not np.tril(pairwise).any()

    def test_pairwise_supports_follow_row_order(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [3, 0, 1])
        pairwise = bitmaps.pairwise_supports()
        assert pairwise[0, 1] == tiny_db.support([0, 3])
        assert pairwise[1, 2] == tiny_db.support([0, 1])
        assert not np.tril(pairwise).any()

    def test_extension_supports(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [0, 1, 2, 3, 4])
        base = bitmaps.conjunction_row([0])
        extensions = bitmaps.extension_supports(base, [1, 2, 3, 4])
        assert extensions.tolist() == [
            tiny_db.support([0, item]) for item in (1, 2, 3, 4)
        ]

    def test_empty_pool(self, tiny_db):
        bitmaps = ItemBitmaps(tiny_db, [])
        assert bitmaps.pairwise_supports().shape == (0, 0)

    def test_pool_wider_than_a_pack_block(self, small_db, monkeypatch):
        # Rows packed three at a time equal rows packed in one block.
        pool = list(range(0, 40, 3))
        whole = ItemBitmaps(small_db, pool)
        monkeypatch.setattr(counting, "_PACK_BLOCK_ROWS", 3)
        blocked = ItemBitmaps(small_db, pool)
        for item in pool:
            np.testing.assert_array_equal(blocked.row(item), whole.row(item))
        np.testing.assert_array_equal(
            blocked.pairwise_supports(), whole.pairwise_supports()
        )

    @pytest.mark.parametrize("n", [0, 1, 37, 63, 64, 65, 128])
    def test_padding_bits_stay_zero(self, small_db, n):
        # Rows are whole uint64 words; every bit past N must be zero.
        pool = [0, 5, 7, 12, 30]
        database = small_db.slice(0, n)
        bitmaps = ItemBitmaps(database, pool)
        for item in pool:
            row = bitmaps.row(item)
            assert row.dtype == np.uint64
            assert row.size == (n + 63) // 64
            bits = np.unpackbits(row.view(np.uint8))
            assert not bits[n:].any()
            assert int(bits.sum()) == database.support([item])
        assert not np.unpackbits(
            bitmaps.conjunction_row([]).view(np.uint8)
        )[n:].any()

    def test_pool_over_no_transactions(self):
        database = TransactionDatabase([], num_items=3)
        bitmaps = ItemBitmaps(database, [0, 2])
        assert popcount(bitmaps.conjunction_row([0])) == 0
        np.testing.assert_array_equal(
            bitmaps.pairwise_supports(), np.zeros((2, 2))
        )


class TestBinCounts:
    def test_partition_property(self, tiny_db):
        bins = bin_counts_for_items(tiny_db, [0, 1, 2])
        assert bins.sum() == tiny_db.num_transactions

    def test_bin_semantics(self, tiny_db):
        # Bit j of the mask ↔ basis[j]; bins count exact intersections.
        bins = bin_counts_for_items(tiny_db, [0, 1])
        # t ∩ {0,1} = {}: transactions (3,4)=... rows: {0,2},{0},... let
        # us just recompute naively.
        expected = [0, 0, 0, 0]
        for transaction in tiny_db:
            mask = (1 if 0 in transaction else 0) | (
                2 if 1 in transaction else 0
            )
            expected[mask] += 1
        assert bins.tolist() == expected

    def test_superset_sum_gives_supports(self, tiny_db):
        basis = (0, 1, 2)
        bins = bin_counts_for_items(tiny_db, basis)
        sums = superset_sum_transform(bins)
        # mask 0b011 = {0,1}; support from bins must equal exact count.
        assert sums[0b011] == tiny_db.support([0, 1])
        assert sums[0b111] == tiny_db.support([0, 1, 2])
        assert sums[0] == tiny_db.num_transactions

    def test_duplicate_basis_items_rejected(self, tiny_db):
        with pytest.raises(ValidationError):
            bin_counts_for_items(tiny_db, [0, 0])

    def test_oversized_basis_rejected(self, tiny_db):
        with pytest.raises(ValidationError):
            bin_counts_for_items(tiny_db, list(range(26)) )


class TestSupersetSumTransform:
    def test_requires_power_of_two(self):
        with pytest.raises(ValidationError):
            superset_sum_transform(np.zeros(5))

    def test_single_bin(self):
        assert superset_sum_transform(np.array([3.0])).tolist() == [3.0]

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=8,
            max_size=8,
        )
    )
    @settings(max_examples=50)
    def test_matches_naive_oracle(self, values):
        bins = np.array(values)
        fast = superset_sum_transform(bins)
        for mask in range(8):
            assert fast[mask] == pytest.approx(
                naive_superset_sum(bins, mask), rel=1e-9, abs=1e-9
            )

    @given(length=st.integers(min_value=0, max_value=6))
    @settings(max_examples=20)
    def test_random_sizes_match_naive(self, length):
        rng = np.random.default_rng(length)
        bins = rng.normal(size=1 << length)
        fast = superset_sum_transform(bins)
        for mask in range(1 << length):
            assert fast[mask] == pytest.approx(
                naive_superset_sum(bins, mask), rel=1e-9, abs=1e-9
            )
