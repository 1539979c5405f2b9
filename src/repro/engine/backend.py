"""The counting-backend protocol — the one data-access seam.

PrivBasis reads the data in exactly three ways (paper Algorithms 1
and 3): single-item supports (:meth:`~CountingBackend.item_supports`,
for GetLambda and GetFreqItems), pairwise supports over a small pool
(:meth:`~CountingBackend.pairwise_supports`, for GetFreqPairs), and
the ``2^ℓ`` bin histograms of BasisFreq
(:meth:`~CountingBackend.bin_counts_batch`, one call for the whole
basis set), plus the exact top-k oracle
(:meth:`~CountingBackend.top_k`).  :class:`CountingBackend` names
those primitives as an abstract interface so that the physical counting
strategy — one in-process bitmap scan, a sharded scan over spilled
segments, a remote store — can vary without touching the algorithm
layer, and so that the DP accounting stays auditable: the mechanisms
in :mod:`repro.core` only ever see counts that came through this
surface.

Implementations in this package:

* :class:`repro.engine.bitmap.BitmapBackend` — the default; wraps the
  packed-bitmap / tid-list kernels of :mod:`repro.fim.counting`.
* :class:`repro.engine.sharded.ShardedBackend` — counts the
  fixed-size shards of a spilled :class:`~repro.engine.mmap
  .MmapShardStore` on a thread pool (GIL-releasing numpy kernels),
  with resident memory bounded by the store's budget.
* :class:`repro.engine.naive.NaiveBackend` — a pure-Python oracle used
  by the equivalence test-suite.
* :class:`repro.engine.cache.CachedBackend` — the memoizing wrapper
  every release runs on (a session's own, or a fresh one per bare
  release); its hit/miss counters are the trace's query counts.

Backend selection guidance: stay with :class:`BitmapBackend` while
the database fits in RAM — it was as fast as or faster than sharding
on every measured workload.  Use
:class:`~repro.engine.sharded.ShardedBackend` when the database should
not stay resident: it spills to segment files and trades a little
merge overhead for bounded memory.  For repeated
releases over one database, wrap either in a
:class:`~repro.engine.session.PrivBasisSession`, which keeps one
memoization layer warm across releases.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.errors import ValidationError

__all__ = ["CountingBackend", "as_backend", "resolve_backend"]


class CountingBackend(abc.ABC):
    """Abstract counting primitives over one transaction database.

    All exact (non-private) data access used by PrivBasis is
    expressible in these queries; concrete backends decide *how* they
    are answered.  Implementations must return exact counts — noise is
    always added downstream by the DP mechanisms, so two correct
    backends are interchangeable bit-for-bit.

    The primitives:

    * :meth:`item_supports`, :meth:`pairwise_supports` and
      :meth:`bin_counts_batch` — the three queries every
      implementation answers; bins come **batched** so BasisFreq
      issues one call for its whole basis set (one shard fan-out
      instead of one per basis for the sharded backend), and
      :meth:`bin_counts` is the one-basis convenience over it;
    * :meth:`top_k` — the exact top-k itemsets (ground truth for
      GetLambda and TF), and :meth:`item_frequencies`, derived from
      :meth:`item_supports`;
    * :meth:`extend` — streaming ingestion, and :meth:`close` — a
      lifecycle hook for backends that own OS resources such as mapped
      segment files.
    """

    # -- identity ------------------------------------------------------
    @property
    @abc.abstractmethod
    def database(self) -> TransactionDatabase:
        """The underlying (immutable) transaction database."""

    @property
    def num_transactions(self) -> int:
        """``N``, the number of transactions."""
        return self.database.num_transactions

    @property
    def num_items(self) -> int:
        """``|I|``, the vocabulary size."""
        return self.database.num_items

    # -- streaming ingestion -------------------------------------------
    @abc.abstractmethod
    def extend(self, delta: TransactionDatabase) -> None:
        """Advance to counting over ``database ⧺ delta`` incrementally.

        After the call, :attr:`database` is the concatenated database
        (a fresh immutable object sharing rows with both inputs) and
        every primitive answers over it — *support-for-support
        identical* to a cold rebuild on the concatenation, which the
        streaming equivalence suite pins against
        :class:`~repro.engine.naive.NaiveBackend`.  Implementations
        reuse their warm state (packed bitmap rows are extended, tail
        shards grow, memo caches are invalidated per snapshot) rather
        than rebuilding it, which is what makes a live ingest feed
        affordable.

        Not thread-safe: callers that serve concurrent queries must
        serialize ``extend`` against them, exactly as the service does
        with its per-dataset lock.
        """

    def _validate_delta(
        self, delta: TransactionDatabase
    ) -> TransactionDatabase:
        """Shared :meth:`extend` argument check for implementations."""
        if not isinstance(delta, TransactionDatabase):
            raise ValidationError(
                f"extend() takes a TransactionDatabase delta, "
                f"got {type(delta).__name__}"
            )
        if delta.num_items != self.num_items:
            raise ValidationError(
                f"delta has num_items={delta.num_items}, backend counts "
                f"over {self.num_items}"
            )
        return delta

    # -- the counting primitives ----------------------------------------
    @abc.abstractmethod
    def item_supports(self) -> np.ndarray:
        """Support count of every single item, shape ``(num_items,)``."""

    @abc.abstractmethod
    def pairwise_supports(
        self, items: Sequence[int]
    ) -> Dict[Tuple[int, int], int]:
        """Support of every unordered pair drawn from ``items``.

        Returns a dict keyed by sorted item pairs, covering all
        ``(|items| choose 2)`` pairs.
        """

    @abc.abstractmethod
    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        """Exact bin histograms (paper Algorithm 1), aligned with ``bases``.

        For each basis, ``counts[mask]`` is the number of transactions
        ``t`` with ``t ∩ basis`` equal to the subset encoded by ``mask``
        (bit ``j`` ↔ ``basis[j]``); ``counts.sum() == N``.  BasisFreq's
        data access is one of these calls for the whole basis set (the
        noise is drawn afterwards, in basis order, so batching does not
        perturb any random stream).
        """

    def bin_counts(self, basis: Sequence[int]) -> np.ndarray:
        """The bin histogram of one basis (see :meth:`bin_counts_batch`)."""
        return self.bin_counts_batch([basis])[0]

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release external resources (mapped segment files).

        A no-op for in-memory backends.  Backends owning OS resources
        (:class:`~repro.engine.sharded.ShardedBackend` over a spill
        store) override it; wrappers forward it; sessions and the
        service call it on shutdown.  Safe to call more than once.
        """

    def __enter__(self) -> "CountingBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- derived conveniences ------------------------------------------
    def item_frequencies(self) -> np.ndarray:
        """Frequency (support / N) of every single item."""
        n = self.num_transactions
        if n == 0:
            return np.zeros(self.num_items, dtype=float)
        return self.item_supports() / float(n)

    def top_k(self, k: int, max_length: Optional[int] = None):
        """Exact (non-private) top-``k`` itemsets with supports.

        The lattice search is inherently global, so the default routes
        to the memoized oracle over the full database
        (:func:`repro.datasets.registry.cached_top_k`); backends that
        cannot do better should leave this alone.
        :class:`~repro.engine.cache.CachedBackend` adds a per-session
        memo on top.
        """
        from repro.datasets.registry import cached_top_k

        return cached_top_k(self.database, k, max_length=max_length)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.database!r})"


def as_backend(source) -> CountingBackend:
    """Coerce ``source`` into a :class:`CountingBackend`.

    A backend passes through unchanged; a
    :class:`TransactionDatabase` is wrapped in the default
    :class:`~repro.engine.bitmap.BitmapBackend`.
    """
    if isinstance(source, CountingBackend):
        return source
    if isinstance(source, TransactionDatabase):
        from repro.engine.bitmap import BitmapBackend

        return BitmapBackend(source)
    raise ValidationError(
        f"expected a TransactionDatabase or CountingBackend, "
        f"got {type(source).__name__}"
    )


def resolve_backend(
    data, backend: Optional[CountingBackend] = None
) -> CountingBackend:
    """Resolve the ``(database, backend=None)`` calling convention.

    The algorithm entry points accept a database positionally plus an
    optional ``backend`` keyword (and, for convenience, a backend in
    the positional slot).  Resolution rules:

    * explicit ``backend`` wins, but must wrap the same database as
      ``data`` when ``data`` is a database (guards against silently
      counting a different dataset);
    * a backend passed positionally is used as-is;
    * a bare database gets the default
      :class:`~repro.engine.bitmap.BitmapBackend`.
    """
    if backend is not None:
        if not isinstance(backend, CountingBackend):
            raise ValidationError(
                f"backend must be a CountingBackend, "
                f"got {type(backend).__name__}"
            )
        if (
            isinstance(data, TransactionDatabase)
            and backend.database is not data
        ):
            raise ValidationError(
                "backend wraps a different database than the one passed "
                "positionally"
            )
        return backend
    return as_backend(data)
