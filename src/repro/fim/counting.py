"""Vectorized support-counting kernels.

Two kernels back the rest of the library:

* :class:`ItemBitmaps` — packed per-item bit vectors over the ``N``
  transactions, held as uint64 words.  A conjunction's row is a
  bitwise AND (its support a popcount of that row), and the pairwise
  supports over a small item pool vectorize to one sweep per item
  that fills a support matrix.  Used by the exact miners and by the
  frequent-pairs step of PrivBasis.
* :func:`bin_counts_for_items` — the scatter-add histogram of paper
  Algorithm 1: for a basis ``B`` it returns, for each of the
  ``2^{|B|}`` subsets ``X ⊆ B``, the number of transactions ``t`` with
  ``t ∩ B = X``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError

#: Basis-length cap the paper recommends (Section 4.4): with ℓ ≤ 12 a
#: basis has at most 2^12 = 4096 bins, keeping both bin storage and the
#: reconstruction transform cheap.  Re-exported as
#: ``repro.core.basis.DEFAULT_MAX_BASIS_LENGTH``.
DEFAULT_MAX_BASIS_LENGTH = 12

#: Hard cap enforced by :func:`bin_counts_for_items`: 2^25 int64 bins
#: is 256 MiB, the most the scatter-add kernel will materialize.  The
#: gap above :data:`DEFAULT_MAX_BASIS_LENGTH` exists for ablations that
#: deliberately stress long bases (``bench_ablation_basis_length``).
MAX_BIN_BASIS_LENGTH = 25


#: Items packed per block when :class:`ItemBitmaps` builds its rows:
#: the unpacked scratch is at most this many rows of ``N`` booleans.
_PACK_BLOCK_ROWS = 256


def database_of(source) -> TransactionDatabase:
    """Unwrap a :class:`TransactionDatabase` from ``source``.

    ``source`` may be a database itself or any object exposing one via
    a ``database`` attribute — in particular a
    :class:`repro.engine.CountingBackend`.  The miners in this package
    accept either, so callers holding a backend never have to reach
    into it manually.  (This helper lives here rather than in
    ``repro.engine`` because the engine layer imports the kernels in
    this module; the reverse import would be a cycle.)
    """
    if isinstance(source, TransactionDatabase):
        return source
    inner = getattr(source, "database", None)
    if isinstance(inner, TransactionDatabase):
        return inner
    raise ValidationError(
        f"expected a TransactionDatabase or a counting backend, "
        f"got {type(source).__name__}"
    )


def _membership(
    database: TransactionDatabase, items: Sequence[int]
) -> np.ndarray:
    """Boolean ``(len(items), N)`` matrix: row ``i`` marks the
    transactions that contain ``items[i]``."""
    rows = np.zeros((len(items), database.num_transactions), dtype=bool)
    for position, item in enumerate(items):
        rows[position, database.tidlist(item)] = True
    return rows


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(rows, n)`` matrix into ``ceil(n / 64)`` uint64
    words per row: the ``np.packbits`` bytes, zero-padded to whole
    8-byte words.  Popcounts ignore bit order, so the words are never
    byte-swapped or unpacked as words."""
    rows, n = bits.shape
    words = np.zeros((rows, (n + 63) // 64), dtype=np.uint64)
    words.view(np.uint8)[:, :(n + 7) // 8] = np.packbits(bits, axis=1)
    return words


class ItemBitmaps:
    """Packed boolean membership rows for a pool of items.

    Each row holds ``ceil(N / 64)`` uint64 words: the item's
    ``np.packbits`` membership bytes, zero-padded to whole words.  The
    padding (bits past ``N``) is zero, so an AND+popcount over whole
    words counts only real transactions.

    Parameters
    ----------
    database:
        Source transactions.
    items:
        The item pool; one packed row is built per item, in this order.
    """

    def __init__(
        self, database: TransactionDatabase, items: Sequence[int]
    ) -> None:
        self._items: Tuple[int, ...] = tuple(int(item) for item in items)
        if len(set(self._items)) != len(self._items):
            raise ValidationError("items must be distinct")
        self._num_transactions = database.num_transactions
        self._position: Dict[int, int] = {
            item: position for position, item in enumerate(self._items)
        }
        # Shape: (num_items_in_pool, ceil(N / 64)) of uint64.  Rows
        # are packed in blocks, so a wide pool (a frequent-itemset mine
        # over hundreds of items) never holds its unpacked boolean
        # matrix at once; a pool of one block (the common case, and the
        # empty pool) keeps its rows without a copy.
        blocks = [
            _pack_words(
                _membership(
                    database, self._items[start:start + _PACK_BLOCK_ROWS]
                )
            )
            for start in range(
                0, max(len(self._items), 1), _PACK_BLOCK_ROWS
            )
        ]
        self._packed = (
            blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        )

    @property
    def items(self) -> Tuple[int, ...]:
        """The item pool, in row order."""
        return self._items

    @property
    def num_transactions(self) -> int:
        return self._num_transactions

    def row(self, item: int) -> np.ndarray:
        """Packed membership row for ``item`` (read-only view)."""
        try:
            return self._packed[self._position[int(item)]]
        except KeyError as exc:
            raise ValidationError(
                f"item {item} is not in this bitmap pool"
            ) from exc

    def conjunction_row(self, items: Sequence[int]) -> np.ndarray:
        """Packed row of transactions containing *all* of ``items``."""
        items = [int(item) for item in items]
        if not items:
            # All transactions: every bit up to N set.
            full = np.ones((1, self._num_transactions), dtype=bool)
            return _pack_words(full)[0]
        result = self.row(items[0]).copy()
        for item in items[1:]:
            np.bitwise_and(result, self.row(item), out=result)
        return result

    def extension_supports(
        self, base_row: np.ndarray, candidate_items: Sequence[int]
    ) -> np.ndarray:
        """Supports of ``base ∧ {i}`` for every candidate ``i`` at once.

        ``base_row`` is a packed row (e.g. from
        :meth:`conjunction_row`); returns an int64 array aligned with
        ``candidate_items``.  Candidates that are one ascending run of
        pool rows (every later item at the root of a mining walk) are
        read as a slice of the packed rows instead of a gathered copy.
        """
        if not len(candidate_items):
            return np.zeros(0, dtype=np.int64)
        positions = [self._position[int(item)] for item in candidate_items]
        first = positions[0]
        if positions == list(range(first, first + len(positions))):
            stacked = self._packed[first:first + len(positions)]
        else:
            stacked = self._packed[positions]
        return np.bitwise_count(stacked & base_row[np.newaxis, :]).sum(
            axis=1, dtype=np.int64
        )

    def pairwise_supports(self) -> np.ndarray:
        """Support of every unordered pair in the pool, as a matrix.

        Returns a ``(P, P)`` int64 matrix over the pool in row order:
        entry ``[i, j]`` with ``i < j`` is the support of
        ``{items[i], items[j]}``, every other entry is 0.  Cost is one
        vectorized AND+popcount sweep per item over whole words, i.e.
        O(|pool|² · N/64) word operations.
        """
        size = len(self._items)
        supports = np.zeros((size, size), dtype=np.int64)
        for position in range(size - 1):
            supports[position, position + 1:] = np.bitwise_count(
                self._packed[position + 1:] & self._packed[position]
            ).sum(axis=1, dtype=np.int64)
        return supports


def bin_counts_for_items(
    database: TransactionDatabase, basis: Sequence[int]
) -> np.ndarray:
    """Exact bin histogram for ``basis`` (paper Algorithm 1, lines 7–11).

    Returns an int64 array ``counts`` of length ``2^{|basis|}`` where
    ``counts[mask]`` is the number of transactions ``t`` with
    ``t ∩ basis`` equal to the subset encoded by ``mask`` (bit ``j`` ↔
    ``basis[j]``).  The bins partition ``D``: ``counts.sum() == N``.

    Implementation: one scatter-add per basis item over its tid-list,
    building a per-transaction mask vector, then ``bincount`` — O(N +
    Σ|tidlist|) instead of a per-transaction Python loop.
    """
    basis = [int(item) for item in basis]
    if len(set(basis)) != len(basis):
        raise ValidationError(f"basis has duplicate items: {basis}")
    length = len(basis)
    if length > MAX_BIN_BASIS_LENGTH:
        raise ValidationError(
            f"basis of length {length} would need 2^{length} bins; "
            f"the bin kernel caps basis length at "
            f"{MAX_BIN_BASIS_LENGTH} (the paper's recommended cap is "
            f"DEFAULT_MAX_BASIS_LENGTH = {DEFAULT_MAX_BASIS_LENGTH})"
        )
    masks = np.zeros(database.num_transactions, dtype=np.int64)
    for position, item in enumerate(basis):
        masks[database.tidlist(item)] += 1 << position
    return np.bincount(masks, minlength=1 << length).astype(np.int64)


def superset_sum_transform(bins: np.ndarray) -> np.ndarray:
    """Sum each bin over its supersets (fast zeta transform).

    Input ``bins`` is indexed by bitmask; output ``S`` satisfies
    ``S[X] = Σ_{Y ⊇ X} bins[Y]``.  This converts the disjoint bin
    histogram of a basis into itemset supports: the support of the
    subset encoded by ``X`` is exactly ``S[X]`` (paper Algorithm 1,
    line 15, computed for *all* X in O(ℓ·2^ℓ) rather than O(3^ℓ)).

    Works on float arrays too (noisy bins), preserving dtype.
    """
    bins = np.asarray(bins)
    size = bins.shape[0]
    if size == 0 or size & (size - 1):
        raise ValidationError(
            f"bins length must be a power of two, got {size}"
        )
    result = bins.copy()
    length = size.bit_length() - 1
    indices = np.arange(size)
    for position in range(length):
        bit = 1 << position
        lower = indices[(indices & bit) == 0]
        result[lower] += result[lower | bit]
    return result


def naive_superset_sum(bins: np.ndarray, mask: int) -> float:
    """Reference O(2^ℓ) superset sum for one mask (test oracle)."""
    total = 0.0
    for index in range(bins.shape[0]):
        if (index & mask) == mask:
            total += bins[index]
    return total
