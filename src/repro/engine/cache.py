"""Memoizing backend wrapper — the one memo of exact counts.

Every counting primitive (plus the exact top-k oracle) is a pure
function of one immutable database *snapshot*, so their results can
be memoized until the data advances.  :class:`CachedBackend` wraps any
inner :class:`~repro.engine.backend.CountingBackend` and is the only
place that keeps exact counts between calls; the backends under it are
stateless kernels over their data.  It keeps:

* the item-support vector, which a streaming append
  (:meth:`CachedBackend.extend`) advances by the delta's supports —
  counts are sums over transactions, so the count over ``D ⧺ Δ`` is
  the count over ``D`` plus the count over ``Δ``;
* pairwise-support matrices keyed by the (frozen) item pool;
* bin histograms keyed by the basis tuple — the big win: a repeated
  release that lands on a basis already counted skips the full data
  scan of Algorithm 1 entirely;
* top-k mining results keyed by ``(k, max_length)``.

The last three are dropped on append.

Only *exact* (non-private) quantities are ever cached.  Noise is drawn
downstream per release, so cache reuse never reuses randomness and the
DP guarantees of each release are unaffected; what is affected is the
privacy *budget* bookkeeping across releases, which belongs to
whoever spends the ε (the service's per-tenant ledger journal).

Every cache is size-capped (oldest entry evicted first, see
:data:`CACHE_LIMITS`) so a long-lived serving session holds bounded
memory: bin histograms are up to ``2^ℓ`` int64 each and would
otherwise accumulate one array per distinct basis ever released.

Per-kind hit/miss counters are exposed via :meth:`cache_info` so tests
and dashboards can verify reuse is actually happening.  Every query
is one hit or one miss, so the counters double as the query count:
the pipeline executor runs each release on a :class:`CachedBackend`
and reports the per-stage change in hits + misses as the stage's
queries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.transactions import TransactionDatabase
from repro.engine.backend import CountingBackend

__all__ = ["CachedBackend"]

Itemset = Tuple[int, ...]

#: Per-cache entry caps.  Bins and top-k results are the large entries
#: (2^ℓ int64 per basis, k tuples per mining result).
CACHE_LIMITS = {
    "bin_counts": 64,
    "pairwise_supports": 32,
    "top_k": 64,
}


def _evict_oldest(cache: Dict, limit: int) -> None:
    """FIFO-evict until ``cache`` has room for one more entry."""
    while len(cache) >= limit:
        del cache[next(iter(cache))]


class CachedBackend(CountingBackend):
    """Wrap ``inner`` with per-query memoization and hit/miss stats."""

    def __init__(self, inner: CountingBackend) -> None:
        self._inner = inner
        self._item_supports: Optional[np.ndarray] = None
        self._pair_cache: Dict[FrozenSet[int], np.ndarray] = {}
        self._bin_cache: Dict[Itemset, np.ndarray] = {}
        self._topk_cache: Dict[Tuple[int, Optional[int]], object] = {}
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}

    @property
    def inner(self) -> CountingBackend:
        """The wrapped backend."""
        return self._inner

    @property
    def database(self) -> TransactionDatabase:
        return self._inner.database

    @property
    def num_transactions(self) -> int:
        return self._inner.num_transactions

    @property
    def num_items(self) -> int:
        return self._inner.num_items

    # -- streaming ingestion -------------------------------------------
    def extend(self, delta: TransactionDatabase) -> None:
        """Append ``delta`` through the inner backend, scoped safely.

        Every memoized result is a function of one database snapshot,
        so an append must not serve it stale — a stale bin histogram
        would silently misprice every later release.  The item-support
        vector is advanced by ``delta``'s supports (O(Δ), with no pass
        over the inner data); the pair, bin and top-k memos are
        dropped.  Which version the new data state is served as is the
        session's business, not the cache's.
        """
        self._inner.extend(delta)
        item_supports = self._item_supports
        self.clear()
        if item_supports is not None:
            self._item_supports = item_supports + delta.item_supports()

    # -- stats ----------------------------------------------------------
    def _record(self, kind: str, hit: bool) -> None:
        table = self._hits if hit else self._misses
        table[kind] = table.get(kind, 0) + 1

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters per query kind (for tests/telemetry)."""
        kinds = sorted(set(self._hits) | set(self._misses))
        return {
            kind: {
                "hits": self._hits.get(kind, 0),
                "misses": self._misses.get(kind, 0),
            }
            for kind in kinds
        }

    def clear(self) -> None:
        """Drop every memoized result (counters are kept)."""
        self._item_supports = None
        self._pair_cache.clear()
        self._bin_cache.clear()
        self._topk_cache.clear()

    # -- the memoized primitives ---------------------------------------
    def item_supports(self) -> np.ndarray:
        if self._item_supports is None:
            self._record("item_supports", hit=False)
            self._item_supports = self._inner.item_supports()
        else:
            self._record("item_supports", hit=True)
        return self._item_supports.copy()

    def pairwise_supports(self, items: Sequence[int]) -> np.ndarray:
        key = frozenset(int(item) for item in items)
        cached = self._pair_cache.get(key)
        if cached is None:
            self._record("pairwise_supports", hit=False)
            cached = self._inner.pairwise_supports(sorted(key))
            _evict_oldest(
                self._pair_cache, CACHE_LIMITS["pairwise_supports"]
            )
            self._pair_cache[key] = cached
        else:
            self._record("pairwise_supports", hit=True)
        return cached.copy()

    # Defined here, not inherited, because perfbench times both bin
    # forms by patching this class's own attributes.
    def bin_counts(self, basis: Sequence[int]) -> np.ndarray:
        return self.bin_counts_batch([basis])[0]

    def bin_counts_batch(
        self, bases: Sequence[Sequence[int]]
    ) -> List[np.ndarray]:
        """Per-basis memo check, then one inner batch for the misses.

        Hit/miss counters advance exactly as a per-basis loop would
        (first occurrence of a new basis is the miss; repeats,
        including within the batch, are hits).
        """
        keys = [tuple(int(item) for item in basis) for basis in bases]
        values: Dict[Itemset, Optional[np.ndarray]] = {}
        missing: list = []
        for key in keys:
            if key in values:
                self._record("bin_counts", hit=True)
                continue
            cached = self._bin_cache.get(key)
            if cached is None:
                self._record("bin_counts", hit=False)
                missing.append(key)
                values[key] = None
            else:
                self._record("bin_counts", hit=True)
                values[key] = cached
        if missing:
            results = self._inner.bin_counts_batch(missing)
            for key, counts in zip(missing, results):
                values[key] = counts
                _evict_oldest(
                    self._bin_cache, CACHE_LIMITS["bin_counts"]
                )
                self._bin_cache[key] = counts
        return [values[key].copy() for key in keys]

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Forward to the inner backend (spill-store teardown)."""
        self._inner.close()

    def top_k(self, k: int, max_length: Optional[int] = None):
        key = (int(k), max_length)
        cached = self._topk_cache.get(key)
        if cached is None:
            self._record("top_k", hit=False)
            cached = self._inner.top_k(k, max_length=max_length)
            _evict_oldest(self._topk_cache, CACHE_LIMITS["top_k"])
            self._topk_cache[key] = cached
        else:
            self._record("top_k", hit=True)
        return list(cached)

    def __repr__(self) -> str:
        return f"CachedBackend({self._inner!r})"
