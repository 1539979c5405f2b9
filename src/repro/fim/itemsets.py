"""Itemset utilities shared by the miners and the PrivBasis core.

An *itemset* is canonically represented as a sorted tuple of int item
ids (see :func:`repro.datasets.transactions.canonical_itemset`).  This
module adds the combinatorial helpers the paper's algorithms need:
subset enumeration and bitmask encoding of subsets of a basis.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, Sequence

from repro.datasets.transactions import Itemset, canonical_itemset
from repro.errors import ValidationError

__all__ = [
    "Itemset",
    "canonical_itemset",
    "all_nonempty_subsets",
    "subsets_of_size",
    "itemset_to_mask",
    "mask_to_itemset",
    "format_itemset",
]


def all_nonempty_subsets(items: Sequence[int]) -> Iterator[Itemset]:
    """Yield every non-empty subset of ``items`` as a canonical tuple.

    Order: by size, then lexicographically — deterministic for tests.
    """
    ordered = canonical_itemset(items)
    for size in range(1, len(ordered) + 1):
        for subset in combinations(ordered, size):
            yield subset


def subsets_of_size(items: Sequence[int], size: int) -> Iterator[Itemset]:
    """Yield all ``size``-subsets of ``items`` in lexicographic order."""
    if size < 0:
        raise ValidationError(f"size must be non-negative, got {size}")
    yield from combinations(canonical_itemset(items), size)


def itemset_to_mask(itemset: Iterable[int], basis: Sequence[int]) -> int:
    """Encode ``itemset ⊆ basis`` as a bitmask over basis positions.

    Bit ``j`` of the result is set iff ``basis[j]`` belongs to
    ``itemset`` — the integer-index encoding paper Algorithm 1's bin
    array uses.
    """
    positions: Dict[int, int] = {
        item: position for position, item in enumerate(basis)
    }
    mask = 0
    for item in itemset:
        try:
            mask |= 1 << positions[int(item)]
        except KeyError as exc:
            raise ValidationError(
                f"item {item} is not in basis {tuple(basis)}"
            ) from exc
    return mask


def mask_to_itemset(mask: int, basis: Sequence[int]) -> Itemset:
    """Decode a bitmask over basis positions back into an itemset."""
    if mask < 0 or mask >= (1 << len(basis)):
        raise ValidationError(
            f"mask {mask} out of range for basis of length {len(basis)}"
        )
    return tuple(
        sorted(
            basis[position]
            for position in range(len(basis))
            if mask & (1 << position)
        )
    )


def format_itemset(
    itemset: Iterable[int], labels: Sequence[str] | None = None
) -> str:
    """Human-readable rendering, e.g. ``{3, 7, 12}`` or ``{milk, bread}``."""
    items = canonical_itemset(itemset)
    if labels is not None:
        rendered = ", ".join(labels[item] for item in items)
    else:
        rendered = ", ".join(str(item) for item in items)
    return "{" + rendered + "}"
