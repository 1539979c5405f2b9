"""Tests for itemset utilities."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.fim.itemsets import (
    all_nonempty_subsets,
    canonical_itemset,
    format_itemset,
    itemset_to_mask,
    mask_to_itemset,
    subsets_of_size,
)


class TestSubsets:
    def test_all_nonempty_subsets_count(self):
        subsets = list(all_nonempty_subsets((1, 2, 3)))
        assert len(subsets) == 7

    def test_ordering_by_size_then_lex(self):
        subsets = list(all_nonempty_subsets((1, 2)))
        assert subsets == [(1,), (2,), (1, 2)]

    def test_subsets_of_size(self):
        assert list(subsets_of_size((1, 2, 3), 2)) == [
            (1, 2), (1, 3), (2, 3),
        ]

    def test_subsets_of_size_zero(self):
        assert list(subsets_of_size((1, 2), 0)) == [()]

    def test_negative_size_rejected(self):
        with pytest.raises(ValidationError):
            list(subsets_of_size((1,), -1))


class TestMaskEncoding:
    def test_roundtrip_all_masks(self):
        basis = (3, 7, 11)
        for mask in range(8):
            itemset = mask_to_itemset(mask, basis)
            assert itemset_to_mask(itemset, basis) == mask

    def test_item_not_in_basis(self):
        with pytest.raises(ValidationError):
            itemset_to_mask((5,), (1, 2, 3))

    def test_mask_out_of_range(self):
        with pytest.raises(ValidationError):
            mask_to_itemset(8, (1, 2, 3))

    def test_empty_itemset_is_mask_zero(self):
        assert itemset_to_mask((), (1, 2)) == 0
        assert mask_to_itemset(0, (1, 2)) == ()

    @given(
        basis_items=st.sets(
            st.integers(min_value=0, max_value=100), min_size=1,
            max_size=8,
        ),
        mask=st.integers(min_value=0),
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, basis_items, mask):
        basis = tuple(sorted(basis_items))
        mask %= 1 << len(basis)
        assert itemset_to_mask(mask_to_itemset(mask, basis), basis) == mask


class TestFormatting:
    def test_plain(self):
        assert format_itemset((3, 1)) == "{1, 3}"

    def test_with_labels(self):
        assert format_itemset((0, 1), ["milk", "bread"]) == "{milk, bread}"

    def test_canonicalization(self):
        assert canonical_itemset((5, 5, 2)) == (2, 5)
