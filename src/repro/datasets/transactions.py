"""Immutable transaction database with fast counting kernels.

A :class:`TransactionDatabase` holds ``N`` transactions over an item
vocabulary ``I = {0, …, num_items − 1}`` (paper Section 2.2).  Items are
small integers internally; an optional ``item_labels`` sequence maps
them back to external names (e.g. FIMI item ids or AOL keywords).

Storage is one CSR layout, the same in RAM and in memory-mapped shard
segments:

* **rows** — ``offsets`` (``N + 1`` int64) and ``items`` (int64), so
  transaction ``i`` is ``items[offsets[i]:offsets[i + 1]]``;
* **index** — the item-major transpose: ``index_offsets``
  (``num_items + 1``) and ``tids``, so the *tid-list* of item ``j`` is
  ``tids[index_offsets[j]:index_offsets[j + 1]]``.  It is built lazily
  in one vectorized pass, or handed over ready-made by
  :meth:`TransactionDatabase.from_csr` (segment files persist it), and
  backs support counting by intersection and the scatter-add bin
  kernel.

Both are flat arrays over whatever buffer holds them, so a database can
be a zero-copy view of a mapping.  Per-row array objects exist only if
something asks for :attr:`~TransactionDatabase.rows`; no counting
kernel does.

The class is deliberately immutable: every mining and privacy component
treats the database as a read-only value, which makes the DP accounting
auditable (the only data accesses are through these query methods).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError

Itemset = Tuple[int, ...]


def canonical_itemset(items: Iterable[int]) -> Itemset:
    """Return ``items`` as a sorted, duplicate-free tuple of ints."""
    return tuple(sorted({int(item) for item in items}))


def _readonly(array) -> np.ndarray:
    """``array`` as a read-only int64 ndarray view (no copy if int64)."""
    view = np.asarray(array, dtype=np.int64).view()
    view.flags.writeable = False
    return view


def _pack_rows(rows: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Row arrays → ``(offsets, items)`` CSR arrays, int64."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.size for row in rows], out=offsets[1:])
    items = np.concatenate(rows) if offsets[-1] else np.empty(0)
    return offsets, items.astype(np.int64, copy=False)


class TransactionDatabase:
    """An immutable set-valued dataset ``D = [t_1, …, t_N]``, ``t_i ⊆ I``.

    Parameters
    ----------
    transactions:
        Iterable of transactions; each transaction is an iterable of
        non-negative integer item ids.  Duplicates within a transaction
        are collapsed (transactions are sets).
    num_items:
        Size of the item vocabulary ``|I|``.  Defaults to
        ``max(item) + 1`` over all transactions; pass it explicitly when
        the vocabulary is larger than what is observed (the paper's
        AOL setting, where ``I`` is public knowledge).
    item_labels:
        Optional external names, ``len(item_labels) == num_items``.
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        num_items: Optional[int] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> None:
        offsets, items = _pack_rows([
            np.array(sorted({int(item) for item in transaction}),
                     dtype=np.int64)
            for transaction in transactions
        ])
        if items.size and items.min() < 0:
            raise ValidationError(
                f"item ids must be non-negative, got {items.min()}"
            )
        max_item = int(items.max()) if items.size else -1
        if num_items is None:
            num_items = max_item + 1
        elif num_items <= max_item:
            raise ValidationError(
                f"num_items={num_items} is smaller than the largest "
                f"observed item id {max_item}"
            )
        self._init_csr(offsets, items, num_items, item_labels, None)

    def _init_csr(
        self,
        offsets,
        items,
        num_items: int,
        item_labels: Optional[Sequence[str]],
        index: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        if item_labels is not None and len(item_labels) != num_items:
            raise ValidationError(
                f"item_labels has {len(item_labels)} entries but "
                f"num_items={num_items}"
            )
        self._offsets = _readonly(offsets)
        self._items = _readonly(items)
        self._num_items = int(num_items)
        self._item_labels = tuple(item_labels) if item_labels else None
        # O(1) checks only: the arrays may be views of a mapping.
        if (self._offsets.ndim != 1 or self._offsets[0] != 0
                or self._offsets[-1] != self._items.size):
            raise ValidationError("CSR offsets must run from 0 to len(items)")
        self._index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if index is not None:
            index_offsets, tids = self._index = tuple(map(_readonly, index))
            if (index_offsets.shape != (self._num_items + 1,)
                    or index_offsets[0] != 0
                    or index_offsets[-1] != tids.size
                    or tids.size != self._items.size):
                raise ValidationError(
                    "tid-list index does not match the rows' shape"
                )
        self._item_support_cache: Optional[np.ndarray] = None
        self._rows: Optional[Tuple[np.ndarray, ...]] = None

    @classmethod
    def from_csr(
        cls,
        offsets,
        items,
        num_items: int,
        index: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "TransactionDatabase":
        """A database over ready CSR arrays, without copying them.

        ``items`` must hold each row sorted and duplicate-free, with
        ids in ``[0, num_items)``; ``index``, when given, is the
        matching ``(index_offsets, tids)`` item-major CSR.  Only O(1)
        shape checks run — the arrays may be views of a mapping whose
        pages should not all be touched — so callers are trusted the
        way :meth:`from_sorted_rows` trusts its callers.
        """
        database = cls.__new__(cls)
        database._init_csr(offsets, items, num_items, item_labels, index)
        return database

    @classmethod
    def from_sorted_rows(
        cls,
        rows: Sequence[np.ndarray],
        num_items: int,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "TransactionDatabase":
        """Fast construction path for trusted callers (generators).

        ``rows`` must already be sorted, duplicate-free int64 arrays
        with items in ``[0, num_items)``; they are packed into CSR.
        Only cheap spot checks are performed; use the regular
        constructor for untrusted data.
        """
        rows = [np.asarray(row, dtype=np.int64) for row in rows]
        for row in rows[: min(len(rows), 8)]:
            if row.size and (
                row[0] < 0
                or row[-1] >= num_items
                or np.any(np.diff(row) <= 0)
            ):
                raise ValidationError(
                    "from_sorted_rows requires sorted unique in-range rows"
                )
        return cls.from_csr(*_pack_rows(rows), num_items,
                            item_labels=item_labels)

    @classmethod
    def concatenate(
        cls,
        parts: Sequence["TransactionDatabase"],
        num_items: int,
        item_labels: Optional[Sequence[str]] = None,
    ) -> "TransactionDatabase":
        """The transactions of ``parts``, in order, as one database
        over ``num_items`` items (each part's vocabulary must fit).

        One ``np.concatenate`` per CSR array; no per-row work.
        """
        if any(part.num_items > num_items for part in parts):
            raise ValidationError(
                f"cannot concatenate databases over more than "
                f"{num_items} items into one over {num_items}"
            )
        bases = np.cumsum([0] + [part.total_size for part in parts])
        return cls.from_csr(
            np.concatenate([[0]] + [
                part._offsets[1:] + base for part, base in zip(parts, bases)
            ]),
            np.concatenate(
                [np.empty(0, np.int64)] + [part._items for part in parts]
            ),
            num_items,
            item_labels=item_labels,
        )

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------
    @property
    def num_transactions(self) -> int:
        """``N``, the number of transactions."""
        return self._offsets.size - 1

    @property
    def num_items(self) -> int:
        """``|I|``, the vocabulary size."""
        return self._num_items

    @property
    def item_labels(self) -> Optional[Tuple[str, ...]]:
        """External item names, if any were supplied."""
        return self._item_labels

    @property
    def total_size(self) -> int:
        """Sum of transaction lengths (the paper's ``|D|``)."""
        return self._items.size

    @property
    def avg_transaction_length(self) -> float:
        """Average ``|t|`` (Table 2(a)'s ``avg |t|`` column)."""
        if not self.num_transactions:
            return 0.0
        return self.total_size / self.num_transactions

    @property
    def offsets(self) -> np.ndarray:
        """Row offsets, ``N + 1`` int64 (read-only)."""
        return self._offsets

    @property
    def items(self) -> np.ndarray:
        """Every transaction's items, concatenated (read-only)."""
        return self._items

    @property
    def index(self) -> Tuple[np.ndarray, np.ndarray]:
        """The item-major CSR ``(index_offsets, tids)``, built lazily.

        Built in one pass: a stable sort of ``items`` lists each item's
        transactions in tid order.
        """
        if self._index is None:
            order = np.argsort(self._items, kind="stable")
            tids = np.repeat(
                np.arange(self.num_transactions, dtype=np.int64),
                np.diff(self._offsets),
            )[order]
            index_offsets = np.zeros(self._num_items + 1, dtype=np.int64)
            np.cumsum(
                np.bincount(self._items, minlength=self._num_items),
                out=index_offsets[1:],
            )
            self._index = (_readonly(index_offsets), _readonly(tids))
        return self._index

    def __len__(self) -> int:
        return self.num_transactions

    def __iter__(self) -> Iterator[Itemset]:
        for index in range(self.num_transactions):
            yield self.transaction(index)

    def transaction(self, index: int) -> Itemset:
        """The ``index``-th transaction as a sorted tuple of items."""
        return tuple(self.transaction_array(index).tolist())

    def transaction_array(self, index: int) -> np.ndarray:
        """The ``index``-th transaction as a read-only sorted array."""
        position = range(self.num_transactions)[index]
        return self._items[
            self._offsets[position]: self._offsets[position + 1]
        ]

    @property
    def rows(self) -> Tuple[np.ndarray, ...]:
        """All transactions as a tuple of read-only row views.

        Built on first use (one view object per row) and kept; the
        counting kernels never ask for it.
        """
        if self._rows is None:
            self._rows = (
                tuple(np.split(self._items, self._offsets[1:-1]))
                if self.num_transactions
                else ()
            )
        return self._rows

    def slice(self, start: int, stop: int) -> "TransactionDatabase":
        """A database over transactions ``[start, stop)``, items shared.

        The shard-construction fast path: a view of ``items`` plus
        ``stop - start + 1`` rebased offsets — no per-row work and no
        revalidation.  Vocabulary and labels carry over unchanged.
        """
        start, stop, _ = slice(start, stop).indices(self.num_transactions)
        stop = max(start, stop)
        offsets = self._offsets[start: stop + 1]
        return TransactionDatabase.from_csr(
            offsets - offsets[0],
            self._items[offsets[0]: offsets[-1]],
            self._num_items,
            item_labels=self._item_labels,
        )

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(N={self.num_transactions}, "
            f"|I|={self.num_items}, "
            f"avg|t|={self.avg_transaction_length:.2f})"
        )

    # ------------------------------------------------------------------
    # Vertical representation
    # ------------------------------------------------------------------
    def tidlist(self, item: int) -> np.ndarray:
        """Sorted array of transaction indices containing ``item``."""
        item = int(item)
        if not 0 <= item < self._num_items:
            raise ValidationError(
                f"item {item} outside vocabulary [0, {self._num_items})"
            )
        index_offsets, tids = self.index
        return tids[index_offsets[item]: index_offsets[item + 1]]

    def item_supports(self) -> np.ndarray:
        """Support count of every single item, shape ``(num_items,)``."""
        if self._item_support_cache is None:
            self._item_support_cache = np.bincount(
                self._items, minlength=self._num_items
            ).astype(np.int64)
        return self._item_support_cache.copy()

    def item_frequencies(self) -> np.ndarray:
        """Frequency (support / N) of every single item."""
        if self.num_transactions == 0:
            return np.zeros(self._num_items, dtype=float)
        return self.item_supports() / float(self.num_transactions)

    # ------------------------------------------------------------------
    # Itemset queries
    # ------------------------------------------------------------------
    def support(self, itemset: Iterable[int]) -> int:
        """Support count of ``itemset`` (number of supersets in D)."""
        items = canonical_itemset(itemset)
        if not items:
            return self.num_transactions
        return int(self.covering_tids(items).size)

    def frequency(self, itemset: Iterable[int]) -> float:
        """Frequency ``f(X) = support(X) / N`` (paper Section 2.2)."""
        if self.num_transactions == 0:
            return 0.0
        return self.support(itemset) / float(self.num_transactions)

    def supports(self, itemsets: Sequence[Iterable[int]]) -> List[int]:
        """Support counts for many itemsets (convenience wrapper)."""
        return [self.support(itemset) for itemset in itemsets]

    def covering_tids(self, itemset: Iterable[int]) -> np.ndarray:
        """Sorted tids of transactions containing ``itemset``."""
        items = canonical_itemset(itemset)
        if not items:
            return np.arange(self.num_transactions, dtype=np.int64)
        lists = sorted(
            (self.tidlist(item) for item in items), key=lambda a: a.size
        )
        current = lists[0]
        for other in lists[1:]:
            if current.size == 0:
                break
            current = np.intersect1d(current, other, assume_unique=True)
        return current

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def extended(self, delta: "TransactionDatabase") -> "TransactionDatabase":
        """Copy-on-write concatenation ``self ⧺ delta``.

        Returns a *new* database whose transactions are this database's
        followed by ``delta``'s; both inputs are left untouched (the
        immutability contract holds — streaming callers advance by
        replacing their reference).  Warm derived state carries over
        instead of being rebuilt from scratch:

        * the item-support cache, when built, is extended by adding
          ``delta``'s supports;
        * the tid-list index, when built, is merged with ``delta``'s in
          one vectorized scatter pass — per-item tid-lists stay sorted
          because every appended tid exceeds every existing tid.

        This is the substrate beneath the incremental ``extend`` path
        of the counting backends.
        """
        if delta.num_items != self._num_items:
            raise ValidationError(
                f"cannot extend a database over {self._num_items} items "
                f"with a delta over {delta.num_items} items"
            )
        combined = TransactionDatabase.concatenate(
            [self, delta], self._num_items, self._item_labels
        )
        if self._item_support_cache is not None:
            combined._item_support_cache = (
                self._item_support_cache + delta.item_supports()
            )
        if self._index is not None:
            # Each of delta's tid-lists (shifted past our tids) goes in
            # at the end of ours; np.insert keeps equal positions in
            # order, so every merged list stays sorted.
            index_offsets, tids = self._index
            delta_offsets, delta_tids = delta.index
            tids = np.insert(
                tids,
                np.repeat(index_offsets[1:], np.diff(delta_offsets)),
                delta_tids + self.num_transactions,
            )
            combined._index = (
                _readonly(index_offsets + delta_offsets), _readonly(tids)
            )
        return combined

    def project(self, items: Iterable[int]) -> "TransactionDatabase":
        """Project every transaction onto ``items`` (paper Section 4.1).

        Keeps all ``N`` transactions (some possibly empty) and the full
        vocabulary, so frequencies remain comparable.
        """
        keep = np.zeros(self._num_items, dtype=bool)
        for item in canonical_itemset(items):
            if not 0 <= item < self._num_items:
                raise ValidationError(
                    f"item {item} outside vocabulary [0, {self._num_items})"
                )
            keep[item] = True
        kept = keep[self._items]
        # Kept items before each row boundary, read off a running count.
        running = np.zeros(self._items.size + 1, dtype=np.int64)
        np.cumsum(kept, out=running[1:])
        return TransactionDatabase.from_csr(
            running[self._offsets], self._items[kept], self._num_items,
            item_labels=self._item_labels,
        )

    def relabel(self, item_labels: Sequence[str]) -> "TransactionDatabase":
        """Return a copy with new external item labels (arrays shared)."""
        return TransactionDatabase.from_csr(
            self._offsets, self._items, self._num_items,
            index=self._index, item_labels=item_labels,
        )

    @classmethod
    def from_labeled_transactions(
        cls, transactions: Iterable[Iterable[str]]
    ) -> "TransactionDatabase":
        """Build a database from transactions of arbitrary string labels.

        Labels are interned to dense int ids in first-seen order and
        preserved in :attr:`item_labels`.
        """
        label_to_id: dict = {}
        rows: List[List[int]] = []
        for transaction in transactions:
            row = []
            for label in transaction:
                identifier = label_to_id.setdefault(
                    str(label), len(label_to_id)
                )
                row.append(identifier)
            rows.append(row)
        labels = [""] * len(label_to_id)
        for label, identifier in label_to_id.items():
            labels[identifier] = label
        return cls(
            rows,
            num_items=len(labels) or None,
            item_labels=labels or None,
        )
