"""Cached serving sessions: many releases over one database.

A production deployment of PrivBasis answers *many* ``(k, ε)``
release requests against the same database — different tenants,
different budgets, retries.  Only the noise and the exponential-
mechanism draws differ between releases; all dataset-derived state
(item supports, bitmap pools, bin histograms, the exact top-k oracle
behind GetLambda's θ) is reusable.  :class:`PrivBasisSession` owns one
database + one :class:`~repro.engine.cache.CachedBackend` and exposes
``release`` / ``release_batch``, so the first release pays the cold
cost and subsequent releases run against warm caches.

Privacy semantics: every release draws fresh randomness and is ε-DP on
its own (caching only reuses exact, non-private intermediates).
Releases over the same data still *compose* — the session keeps a
cumulative ledger and, when ``epsilon_limit`` is set, refuses releases
that would exceed it (sequential composition across the session's
lifetime).  When no limit is set the ledger is informational, which
matches the common deployment where an external budget service owns
the global accounting.

Streaming: the session is **snapshot-aware**.  It can be fed a live
:class:`~repro.datasets.stream.TransactionLog` (or raw transaction
batches via :meth:`PrivBasisSession.ingest`), advancing its warm
backend incrementally instead of rebuilding, and every release pins
and reports the snapshot version it was computed on
(``result.snapshot_version``).  The ε ledger is deliberately
*unchanged* by ingestion — DP accounting composes across all releases
by the same principal regardless of which snapshot each one saw; see
``docs/streaming.md`` for the argument.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.datasets.stream import TransactionLog
from repro.datasets.transactions import TransactionDatabase
from repro.engine.backend import CountingBackend, resolve_backend
from repro.engine.cache import CachedBackend
from repro.errors import BudgetExceededError, ValidationError

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
        :class:`~repro.engine.backend.CountingBackend` over it).  A
        :class:`~repro.datasets.stream.TransactionLog` is also
        accepted: the session starts on the log's latest snapshot and
        stays attached, so :meth:`ingest` appends through the log and
        :meth:`sync` catches up with appends made by other writers.
    backend:
        Optional explicit backend; defaults to
        :class:`~repro.engine.bitmap.BitmapBackend`.  It is wrapped in
        a :class:`~repro.engine.cache.CachedBackend` unless it already
        is one.
    epsilon_limit:
        Optional cap on the *cumulative* ε spent by this session
        (sequential composition across releases).  ``None`` means
        unlimited (accounting is still recorded).
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
        epsilon_limit: Optional[float] = None,
        rng=None,
    ) -> None:
        from repro.dp.rng import ensure_rng

        self._log: Optional[TransactionLog] = None
        self._snapshot_version = 0
        if isinstance(database, TransactionLog):
            self._log = database
            pinned = database.snapshot()
            database = pinned.database
            self._snapshot_version = pinned.version
        inner = resolve_backend(database, backend)
        self._backend: CachedBackend = (
            inner
            if isinstance(inner, CachedBackend)
            else CachedBackend(inner)
        )
        if epsilon_limit is not None and not (epsilon_limit > 0):
            raise ValidationError(
                f"epsilon_limit must be positive, got {epsilon_limit}"
            )
        self._epsilon_limit = epsilon_limit
        self._epsilon_spent = 0.0
        self._num_releases = 0
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
    def epsilon_spent(self) -> float:
        """Cumulative ε consumed by this session's releases."""
        return self._epsilon_spent

    @property
    def epsilon_limit(self) -> Optional[float]:
        return self._epsilon_limit

    @property
    def num_releases(self) -> int:
        return self._num_releases

    @property
    def snapshot_version(self) -> int:
        """The data snapshot all new releases are computed on."""
        return self._snapshot_version

    @property
    def log(self) -> Optional[TransactionLog]:
        """The attached transaction log, if the session follows one."""
        return self._log

    # -- streaming ingestion --------------------------------------------
    def ingest(self, transactions) -> int:
        """Append a batch of transactions; returns the new version.

        ``transactions`` is an iterable of transactions (each an
        iterable of item ids within the current vocabulary) or a ready
        :class:`TransactionDatabase` delta.  The warm backend advances
        incrementally — bitmap rows are extended, tail shards grow,
        and the caching layer performs its snapshot-scoped
        invalidation — so ingestion costs O(Δ), not a cold rebuild.

        No privacy budget is consumed: ingestion only changes which
        exact data later mechanisms read.  Already-published releases
        keep the (now historical) snapshot version they pinned.
        """
        if self._log is not None:
            self._log.append(transactions)
            return self.sync()
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
        self._snapshot_version += 1
        return self._snapshot_version

    def sync(self) -> int:
        """Catch up with appends made to the attached log; returns the
        version now served.

        A no-op (returning the current version) when the session is
        not attached to a :class:`TransactionLog` or is already
        current.  One backend ``extend`` covers any number of missed
        log versions.
        """
        if self._log is None:
            return self._snapshot_version
        target = self._log.version
        if target > self._snapshot_version:
            delta = self._log.delta(self._snapshot_version, target)
            self._backend.extend(delta)
            self._snapshot_version = target
        return self._snapshot_version

    def restore(
        self,
        delta=None,
        snapshot_version: Optional[int] = None,
        num_releases: Optional[int] = None,
        epsilon_spent: Optional[float] = None,
    ) -> int:
        """Warm-restore hook for a durable state store; returns the
        version now served.

        A restarted service rebuilds its base session from the
        dataset loader and then calls this once per dataset to bring
        it back to the pre-crash state recorded in
        :class:`repro.store.state.StateStore`:

        * ``delta`` — every transaction ingested since the base
          snapshot (flattened across batches), applied through the
          warm backend's O(Δ) ``extend`` path;
        * ``snapshot_version`` — the version the store recorded; set
          directly rather than incremented, because one flattened
          ``extend`` replays what was originally many versioned
          batches and releases must pin the *original* numbering;
        * ``num_releases`` / ``epsilon_spent`` — the session's
          informational serving counters (``/metrics`` continuity;
          the authoritative per-tenant accounting lives in the
          journaled tenant ledgers, not here).

        Unlike :meth:`ingest`, nothing here re-journals: the state
        being applied came *from* the journal.  Restoring is only
        valid forward — a ``snapshot_version`` behind the current one
        is rejected rather than silently rewinding the data.
        """
        if self._log is not None and delta is not None:
            raise ValidationError(
                "cannot restore a delta into a session attached to a "
                "TransactionLog; restore the log and sync() instead"
            )
        if delta is not None:
            if not isinstance(delta, TransactionDatabase):
                delta = TransactionDatabase(
                    delta, num_items=self._backend.num_items
                )
            if delta.num_transactions:
                self._backend.extend(delta)
        if snapshot_version is not None:
            if int(snapshot_version) < self._snapshot_version:
                raise ValidationError(
                    f"cannot restore snapshot_version "
                    f"{snapshot_version} behind current "
                    f"{self._snapshot_version}"
                )
            self._snapshot_version = int(snapshot_version)
        if num_releases is not None:
            if int(num_releases) < 0:
                raise ValidationError(
                    f"num_releases must be >= 0, got {num_releases!r}"
                )
            self._num_releases = int(num_releases)
        if epsilon_spent is not None:
            if not (float(epsilon_spent) >= 0):
                raise ValidationError(
                    f"epsilon_spent must be >= 0, got {epsilon_spent!r}"
                )
            self._epsilon_spent = float(epsilon_spent)
        return self._snapshot_version

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Hit/miss counters of the shared cache (telemetry)."""
        return self._backend.cache_info()

    def stats(self) -> Dict[str, object]:
        """One JSON-serializable bundle of ledger + cache telemetry.

        This is the introspection surface :mod:`repro.service` polls
        for its ``/metrics`` endpoint: the session-level ε ledger
        (cumulative across every tenant sharing this session), the
        per-kind cache hit/miss counters, and — when the inner backend
        exposes it — the number of bitmap pools built, which is the
        signal the coalescing tests use to prove cold-start work
        happened at most once.
        """
        inner = self._backend.inner
        stats: Dict[str, object] = {
            "num_releases": self._num_releases,
            "epsilon_spent": self._epsilon_spent,
            "epsilon_limit": self._epsilon_limit,
            "snapshot_version": self._snapshot_version,
            "num_transactions": self._backend.num_transactions,
            "cache": self._backend.cache_info(),
        }
        pools_built = getattr(inner, "pools_built", None)
        if pools_built is not None:
            stats["pools_built"] = int(pools_built)
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
        is a no-op for in-memory backends.  The session's ledger and
        counters survive; an in-memory backend stays queryable.
        """
        self._backend.close()

    def __enter__(self) -> "PrivBasisSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving --------------------------------------------------------
    def _charge(self, epsilon: float) -> None:
        if self._epsilon_limit is not None:
            remaining = self._epsilon_limit - self._epsilon_spent
            if epsilon > remaining * (1 + 1e-9):
                raise BudgetExceededError(epsilon, max(remaining, 0.0))

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
            # Resolve before charging: an unknown planner spends nothing.
            planner = resolve_planner(planner)
        self._charge(epsilon)
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
        self._epsilon_spent += epsilon
        self._num_releases += 1
        return result

    def release_batch(self, requests: Iterable[ReleaseRequest]) -> List:
        """Serve many releases in one call (multi-tenant batching).

        Each request is a ``(k, epsilon)`` pair or a mapping of
        :meth:`release` keywords.  The whole batch is charged against
        ``epsilon_limit`` up front, so a batch either fits entirely or
        fails before any noise is drawn (no partial batches to refund).
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
        # Validate every request before charging or drawing noise, so
        # the all-or-nothing promise holds: a bad epsilon or k in the
        # middle of a batch must not leave earlier releases spent.
        for request in normalized:
            validate_k(request["k"])
            request["epsilon"] = validate_epsilon(request["epsilon"])
        total = sum(request["epsilon"] for request in normalized)
        self._charge(total)
        return [self.release(**request) for request in normalized]

    def __repr__(self) -> str:
        limit = (
            f", epsilon_limit={self._epsilon_limit:g}"
            if self._epsilon_limit is not None
            else ""
        )
        return (
            f"PrivBasisSession({self.database!r}, "
            f"releases={self._num_releases}, "
            f"epsilon_spent={self._epsilon_spent:g}{limit})"
        )
