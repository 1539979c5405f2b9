"""A pure-Python reference backend (the equivalence-test oracle).

:class:`NaiveBackend` answers every counting primitive with the most
literal implementation possible — one Python loop over transactions
held as frozensets — so that it is easy to audit by eye.  It exists to
pin the semantics of :class:`~repro.engine.backend.CountingBackend`:
the property tests assert that :class:`~repro.engine.bitmap
.BitmapBackend` and :class:`~repro.engine.sharded.ShardedBackend`
agree with it exactly on random databases.  Do not use it for real
workloads; it is O(N·|t|) Python per query.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

import numpy as np

from repro.datasets.transactions import (
    TransactionDatabase,
    canonical_itemset,
)
from repro.engine.backend import CountingBackend

__all__ = ["NaiveBackend"]


class NaiveBackend(CountingBackend):
    """Loop-and-count oracle over transactions as frozensets."""

    def __init__(self, database: TransactionDatabase) -> None:
        self._database = database
        self._transactions: List[frozenset] = [
            frozenset(transaction) for transaction in database
        ]

    @property
    def database(self) -> TransactionDatabase:
        return self._database

    def extend(self, delta: TransactionDatabase) -> None:
        """Oracle append: extend the frozenset list, nothing clever."""
        self._validate_delta(delta)
        self._database = self._database.extended(delta)
        self._transactions.extend(
            frozenset(transaction) for transaction in delta
        )

    def item_supports(self) -> np.ndarray:
        counts = np.zeros(self._database.num_items, dtype=np.int64)
        for transaction in self._transactions:
            for item in transaction:
                counts[item] += 1
        return counts

    def pairwise_supports(self, items: Sequence[int]) -> np.ndarray:
        pool = canonical_itemset(items)
        position = {item: index for index, item in enumerate(pool)}
        supports = np.zeros((len(pool), len(pool)), dtype=np.int64)
        for transaction in self._transactions:
            present = sorted(set(pool) & transaction)
            for first, second in combinations(present, 2):
                supports[position[first], position[second]] += 1
        return supports

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        return [self._bin_counts(basis) for basis in bases]

    def _bin_counts(self, basis: Sequence[int]) -> np.ndarray:
        basis = [int(item) for item in basis]
        counts = np.zeros(1 << len(basis), dtype=np.int64)
        for transaction in self._transactions:
            mask = 0
            for position, item in enumerate(basis):
                if item in transaction:
                    mask |= 1 << position
            counts[mask] += 1
        return counts
