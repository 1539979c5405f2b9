"""Cached serving sessions: many releases over one database.

A production deployment of PrivBasis answers *many* ``(k, ε)``
release requests against the same database — different tenants,
different budgets, retries.  Only the noise and the exponential-
mechanism draws differ between releases; all dataset-derived state
(item supports, pair supports, bin histograms, the exact top-k oracle
behind GetLambda's θ) is reusable.  :class:`PrivBasisSession` owns one
database + one :class:`~repro.engine.cache.CachedBackend` and exposes
``release`` / ``release_batch``, so the first release pays the cold
cost and subsequent releases run against warm caches.

Privacy semantics: every release draws fresh randomness and is ε-DP on
its own (caching only reuses exact, non-private intermediates).
Releases over the same data still *compose*, and the session keeps no
ledger of them: whoever spends ε owns that account — the service's
per-tenant :class:`~repro.store.ledger.LedgerJournal`, or a library
caller's own :class:`~repro.dp.budget.PrivacyBudget`.

Streaming: the session is **snapshot-aware**.  Raw transaction
batches fed through :meth:`PrivBasisSession.ingest` advance its warm
backend incrementally instead of rebuilding, and every release pins
and reports the snapshot version it was computed on
(``result.snapshot_version``).  A bare session numbers its own
versions; the service hands each batch the version its dataset log
assigned.  Ingestion spends no ε — see ``docs/streaming.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.datasets.transactions import TransactionDatabase
from repro.engine.backend import CountingBackend, resolve_backend
from repro.engine.cache import CachedBackend
from repro.errors import ValidationError

__all__ = ["PrivBasisSession", "ReleaseRequest"]

#: A release request for :meth:`PrivBasisSession.release_batch`: either
#: a ``(k, epsilon)`` pair or a mapping of :meth:`release` keyword
#: arguments (``{"k": 50, "epsilon": 1.0, "noise": "geometric"}``).
ReleaseRequest = Union[Tuple[int, float], Mapping[str, object]]


class PrivBasisSession:
    """One database + one warm backend, serving repeated releases.

    Parameters
    ----------
    database:
        The transaction database (or a ready
        :class:`~repro.engine.backend.CountingBackend` over it).
    backend:
        Optional explicit backend; defaults to
        :class:`~repro.engine.bitmap.BitmapBackend`.  It is wrapped in
        a :class:`~repro.engine.cache.CachedBackend` unless it already
        is one.
    rng:
        Session-level randomness; per-release ``rng`` overrides it.
        All releases without an explicit seed draw from this one
        stream, so a seeded session is reproducible end to end.

    Every release runs the mechanism afresh.  Answering dominated
    requests from stored releases is the service's job: its result
    store keeps one reuse index per tenant
    (:mod:`repro.pipeline.reuse`).
    """

    def __init__(
        self,
        database,
        backend: Optional[CountingBackend] = None,
        rng=None,
    ) -> None:
        from repro.dp.rng import ensure_rng

        self._snapshot_version = 0
        inner = resolve_backend(database, backend)
        self._backend: CachedBackend = (
            inner
            if isinstance(inner, CachedBackend)
            else CachedBackend(inner)
        )
        self._rng = ensure_rng(rng)

    # -- introspection --------------------------------------------------
    @property
    def database(self) -> TransactionDatabase:
        return self._backend.database

    @property
    def backend(self) -> CachedBackend:
        """The memoizing backend all releases share."""
        return self._backend

    @property
    def snapshot_version(self) -> int:
        """The data snapshot all new releases are computed on."""
        return self._snapshot_version

    # -- streaming ingestion --------------------------------------------
    def ingest(self, transactions, version: Optional[int] = None) -> int:
        """Append a batch of transactions; returns the version served.

        ``transactions`` is an iterable of transactions (each an
        iterable of item ids within the current vocabulary) or a ready
        :class:`TransactionDatabase` delta.  The warm backend advances
        incrementally — the cached item supports grow by the delta's,
        tail shards grow, and the pair, bin and top-k memos are
        dropped — so ingestion costs O(Δ), not a cold rebuild.

        ``version`` is the number the new data state is served as.  A
        bare session counts its own (the current version + 1); the
        service passes the version its dataset log assigned, which may
        skip numbers a lost data state used, and a restart replays the
        log's flattened rows in one call at the log's version.  It
        must be ahead of the current version: a number is never
        served twice.

        No privacy budget is consumed: ingestion only changes which
        exact data later mechanisms read.  Already-published releases
        keep the (now historical) snapshot version they pinned.
        """
        version = (
            self._snapshot_version + 1 if version is None else int(version)
        )
        if version <= self._snapshot_version:
            raise ValidationError(
                f"ingest version {version} is not ahead of the served "
                f"version {self._snapshot_version}"
            )
        if isinstance(transactions, TransactionDatabase):
            delta = transactions
        else:
            delta = TransactionDatabase(
                transactions, num_items=self._backend.num_items
            )
        if delta.num_transactions == 0:
            raise ValidationError(
                "cannot ingest an empty batch (versions must advance "
                "the data); skip the call instead"
            )
        self._backend.extend(delta)
        self._snapshot_version = version
        return version

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters of the shared cache (telemetry)."""
        return self._backend.cache_info()

    def stats(self) -> Dict[str, object]:
        """One JSON-serializable bundle of data-state + cache telemetry.

        This is the introspection surface :mod:`repro.service` polls
        for its ``/metrics`` endpoint: the served snapshot and the
        per-kind cache hit/miss counters, whose misses are the signal
        the coalescing tests use to prove cold-start work happened at
        most once.  Release counts are not here: the service's result
        store owns them.
        """
        inner = self._backend.inner
        stats: Dict[str, object] = {
            "snapshot_version": self._snapshot_version,
            "num_transactions": self._backend.num_transactions,
            "cache": self._backend.cache_info(),
        }
        data_plane_stats = getattr(inner, "data_plane_stats", None)
        if callable(data_plane_stats):
            # Out-of-core (mmap) backends report residency telemetry:
            # spilled vs resident bytes, budget, cached shard count.
            stats["data_plane"] = data_plane_stats()
        return stats

    def warm_up(self) -> None:
        """Pay the dataset-independent part of the cold-start cost now.

        Computes the item-support vector through the caching backend so
        the first real release skips that scan.  Deliberately touches
        nothing release-specific (no top-k oracle, no bins): those
        depend on ``k`` and the private basis, which are unknown until
        a request arrives.  Reads only exact data — no privacy budget
        is consumed.
        """
        self._backend.item_supports()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release backend-owned OS resources (idempotent).

        Forwards to the backend's :meth:`~repro.engine.backend
        .CountingBackend.close` — which closes the spill store of an
        mmap-plane :class:`~repro.engine.sharded.ShardedBackend` and
        is a no-op for in-memory backends.  An in-memory backend stays
        queryable.
        """
        self._backend.close()

    def __enter__(self) -> "PrivBasisSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving --------------------------------------------------------
    def release(
        self, k: int, epsilon: float, rng=None, planner=None, **kwargs
    ):
        """One ε-DP top-``k`` release against the warm backend.

        Accepts every keyword :func:`repro.core.privbasis.privbasis`
        accepts (``eta``, ``alphas``, ``noise``, …) plus ``planner`` —
        a budget-planner name, spec mapping, or
        :class:`~repro.pipeline.planner.BudgetPlanner` — and returns a
        :class:`~repro.core.result.PrivBasisResult` whose ``.trace``
        reports per-stage ε, wall time, and backend query counts.
        Fresh noise is drawn per call; only exact intermediates are
        reused.

        The release pins the session's current snapshot version and
        reports it on ``result.snapshot_version``, so even under a
        live ingest feed every published output is attributable to one
        exact data state.  (Callers interleaving ``ingest`` from other
        threads must serialize against releases, as the service's
        per-dataset lock does.)
        """
        from repro.pipeline.plan import validate_epsilon
        from repro.pipeline.planner import resolve_planner
        from repro.pipeline.run import planned_release

        epsilon = validate_epsilon(epsilon)
        if planner is not None:
            planner = resolve_planner(planner)
        pinned_version = self._snapshot_version
        result = planned_release(
            self.database,
            k=k,
            epsilon=epsilon,
            planner=planner,
            backend=self._backend,
            rng=self._rng if rng is None else rng,
            **kwargs,
        )
        result.snapshot_version = pinned_version
        return result

    def release_batch(self, requests: Iterable[ReleaseRequest]) -> List:
        """Serve many releases in one call (multi-tenant batching).

        Each request is a ``(k, epsilon)`` pair or a mapping of
        :meth:`release` keywords.  Every request is validated before
        the first one runs, so a malformed batch fails before any
        noise is drawn.
        """
        from repro.pipeline.plan import validate_epsilon, validate_k

        normalized: List[Mapping[str, object]] = []
        for request in requests:
            if isinstance(request, Mapping):
                if "k" not in request or "epsilon" not in request:
                    raise ValidationError(
                        f"release request needs 'k' and 'epsilon': "
                        f"{request!r}"
                    )
                normalized.append(dict(request))
            else:
                k, epsilon = request
                normalized.append({"k": k, "epsilon": epsilon})
        if not normalized:
            return []
        # Validate every request before drawing noise: a bad epsilon
        # or k in the middle of a batch must not leave earlier
        # releases published.
        for request in normalized:
            validate_k(request["k"])
            request["epsilon"] = validate_epsilon(request["epsilon"])
        return [self.release(**request) for request in normalized]

    def __repr__(self) -> str:
        return (
            f"PrivBasisSession({self.database!r}, "
            f"snapshot_version={self._snapshot_version})"
        )
