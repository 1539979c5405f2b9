"""The multi-tenant PrivBasis service (asyncio JSON-over-HTTP).

One :class:`PrivBasisService` fronts one
:class:`~repro.engine.session.PrivBasisSession` per dataset:

* **Sessions are per-dataset, shared across tenants.**  Everything a
  session caches is exact and non-private, so sharing it leaks nothing
  between tenants; cold-start construction is deduplicated through a
  :class:`~repro.service.coalesce.Coalescer` so a thundering herd on a
  cold dataset builds its session once.
* **Budgets are per-tenant, never shared.**  Every release spends from
  the requesting tenant's ledger — its entries in the store's
  :class:`~repro.store.ledger.LedgerJournal` — before any noise is
  drawn; overdrafts map to HTTP 403 with a structured
  ``budget_exceeded`` payload.
* **Noise is per-release, never shared.**  Requests are seed-less by
  contract (:mod:`repro.service.protocol`) and every release draws
  from a fresh OS-seeded generator, so even byte-identical coalesced
  requests return distinct outputs.
* **Admission is bounded.**  At most ``max_inflight`` releases are in
  flight (including time queued on the per-dataset lock); beyond that
  the service answers 429 immediately instead of queueing unboundedly.

* **Ingestion is serialized with releases, never with noise.**
  ``POST /v1/ingest`` appends transactions to a tenant's dataset
  through the warm session's incremental ``extend`` path, under the
  same per-dataset lock releases use — so every release sees one
  consistent snapshot and reports its version on the wire.  A cold
  dataset hit by concurrent ingests/releases still builds once: both
  paths acquire the session through the coalescer.  Tenants whose
  config sets ``"ingest": false`` get HTTP 403 ``ingest_forbidden``.

* **Plans are free.**  ``GET /v1/plan`` prices a release — per-stage ε
  under the requested :class:`~repro.pipeline.planner.BudgetPlanner` —
  from public parameters only: no tenant budget is spent, no session
  is built, no data is read.  Releases may opt into a per-stage
  execution trace (``"trace": true``) and every served release feeds
  the per-stage counters ``/metrics`` reports under ``pipeline``.

* **Stored releases are reused before data is touched.**  When a
  plain ``(k', ε')`` request is strictly dominated by a release the
  *same tenant* already bought on the *same snapshot* (``k' ≤ k``,
  ``ε' ≤ ε``, not byte-identical — see :mod:`repro.pipeline.reuse`),
  the service answers by truncating the stored payload: pure
  post-processing, charged exactly ε = 0, zero backend queries.
  Byte-identical repeats always run fresh (the seed-less contract
  above promises distinct noise), as do requests naming a ``planner``
  or ``noise`` override.  ``/v1/plan`` prices a reuse hit at 0 and
  ``/metrics`` counts hits, misses, and ε saved; ``--no-reuse``
  (``reuse=False``) opts a deployment out entirely.

* **One persistence path, one owner per fact.**  A
  :class:`~repro.store.state.StateStore` holds the serving state: its
  dataset logs number every ingest batch's snapshot version (the
  session serves the version it is handed), its result store keeps
  every released payload under ``(tenant, dataset, snapshot_version)``
  and owns the release counters and the per-tenant reuse indexes, and
  its ledger journal is every tenant's ε ledger.  With ``state_dir``
  the store is durable: every ε debit is written ahead (durable
  *before* the noisy answer leaves the process), and a restart
  restores the tenants' spent budgets, replays each dataset to its
  pre-crash version, and keeps the release counters and the
  released-result history (``GET /v1/results``), reporting what it
  recovered on ``/healthz``.  Without ``state_dir`` the same store
  runs in memory and writes nothing.  See ``docs/operations.md``.

Endpoints: ``POST /v1/release``, ``POST /v1/release_batch``,
``POST /v1/ingest``, ``GET /v1/plan?tenant=…&k=…&epsilon=…``,
``GET /v1/snapshot?tenant=…``, ``GET /v1/budget?tenant=…``,
``GET /v1/results?tenant=…``, ``GET /healthz``, ``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import functools
import os
import shutil
import time
import traceback
from contextlib import asynccontextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.datasets.transactions import TransactionDatabase
from repro.engine.session import PrivBasisSession
from repro.errors import (
    BudgetExceededError,
    IngestNotAllowedError,
    OverloadedError,
    ReproError,
    UnknownTenantError,
    ValidationError,
    WorkerUnavailableError,
    error_to_wire,
)
from repro.pipeline.plan import build_plan
from repro.pipeline.reuse import ReuseDecision, top_k_truncate
from repro.service import http
from repro.service.coalesce import Coalescer
from repro.service.metrics import (
    ReuseMetrics,
    ServiceMetrics,
    StageMetrics,
)
from repro.service.protocol import (
    parse_batch_request,
    parse_ingest_request,
    parse_plan_query,
    parse_release_request,
    result_to_wire,
)
from repro.service.registry import Tenant, TenantRegistry
from repro.store.state import StateStore

__all__ = [
    "PrivBasisService",
    "DEFAULT_MAX_INFLIGHT",
    "validate_data_plane",
]

#: Default bound on concurrently admitted releases.
DEFAULT_MAX_INFLIGHT = 8

#: The routes the service answers; metrics label anything else
#: "unknown" so a path-spraying client cannot grow per-route state
#: without bound.
ROUTES = frozenset(
    {"/healthz", "/metrics", "/v1/budget", "/v1/ingest", "/v1/plan",
     "/v1/release", "/v1/release_batch", "/v1/results", "/v1/snapshot"}
)


def validate_data_plane(
    data_plane: str, memory_budget_mb: Optional[int] = None
) -> None:
    """Fail fast on data-plane settings no dataset could be served with.

    ``data_plane`` is ``"memory"`` or ``"mmap"``; ``memory_budget_mb``
    is read only by the mmap plane, so it must be ``>= 1`` there and
    unset on the memory plane — never silently ignored.  Shared by
    :class:`PrivBasisService`, the cluster config and the CLI.
    """
    if data_plane not in ("memory", "mmap"):
        raise ValidationError(
            f"data_plane must be 'memory' or 'mmap', got {data_plane!r}"
        )
    if memory_budget_mb is None:
        return
    if data_plane != "mmap":
        raise ValidationError(
            "memory_budget_mb applies only to data_plane='mmap'"
        )
    if memory_budget_mb < 1:
        raise ValidationError(
            f"memory_budget_mb must be >= 1, got {memory_budget_mb}"
        )


def _fresh_rng():
    """A fresh OS-entropy generator for exactly one release.

    The wire contract promises every release its own randomness; a
    dedicated generator per request makes that literal — no stream is
    shared across releases, tenants, or the session's own default rng.
    """
    import numpy as np

    return np.random.default_rng()


def _status_for(error: ReproError) -> int:
    """Map a repro exception onto its HTTP status."""
    if isinstance(error, UnknownTenantError):
        return 404
    if isinstance(error, (BudgetExceededError, IngestNotAllowedError)):
        return 403
    if isinstance(error, OverloadedError):
        return 429
    if isinstance(error, WorkerUnavailableError):
        return 503
    if isinstance(error, ValidationError):
        return 400
    return 500


class PrivBasisService:
    """Serve DP releases for the tenants in ``registry``.

    Parameters
    ----------
    registry:
        The tenants to serve and their dataset bindings / ε limits.
    dataset_loader:
        ``name -> TransactionDatabase``; defaults to
        :func:`repro.datasets.registry.load_dataset`.  Tests inject
        small synthetic databases here.
    max_inflight:
        Admission bound on concurrent releases; excess requests get
        HTTP 429 without queueing.
    state_dir:
        Optional durable state directory.  When set, the service's
        :class:`~repro.store.state.StateStore` lives there: its
        ledger journal recovers every tenant's ε debits and records
        new ones write-ahead, each dataset's ingest log is replayed
        when its session is built, and released results are
        persisted as they are served.  ``None`` (default) runs the
        same store in memory.
    fsync:
        WAL fsync policy for the state store (ignored without
        ``state_dir``): ``"batch"`` (default; debits buffer and one
        barrier per release makes them durable) or ``"always"``.
    shared_state:
        ``True`` when other worker processes serve the same
        ``state_dir`` concurrently (cluster mode): the store opens its
        ledger in flock-serialized shared mode so ε admission is
        atomic cluster-wide.  Requires ``state_dir``.
    data_plane:
        ``"memory"`` (default) keeps every dataset RAM-resident behind
        a :class:`~repro.engine.bitmap.BitmapBackend`; ``"mmap"``
        spills each dataset to memory-mapped segment files (under
        ``<state_dir>/shards/…``, or the system temp dir without a
        state dir) and serves queries through a
        :class:`~repro.engine.sharded.ShardedBackend` over a
        budget-bounded shard cache — the out-of-core plane.  Counting
        results are bit-identical either way.
    memory_budget_mb:
        Resident-shard budget per dataset for ``data_plane="mmap"``
        (default: the engine's
        :data:`~repro.engine.mmap.DEFAULT_MEMORY_BUDGET_BYTES`); must
        be ``>= 1``, and is rejected on the memory plane, where
        nothing would read it.  Segments hold the engine's
        :data:`~repro.engine.mmap.DEFAULT_SHARD_SIZE` rows each.
    reuse:
        ``True`` (default) serves dominated plain requests from the
        tenant's stored releases at ε = 0 (see the module docstring's
        reuse bullet); ``False`` (``--no-reuse``) runs every release
        fresh.  The result store owns the per-tenant indexes; with
        ``state_dir`` set they survive restarts (rebuilt from the
        WAL).
    """

    def __init__(
        self,
        registry: TenantRegistry,
        dataset_loader: Optional[Callable[[str], Any]] = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        state_dir: Optional[str] = None,
        fsync: str = "batch",
        shared_state: bool = False,
        data_plane: str = "memory",
        memory_budget_mb: Optional[int] = None,
        reuse: bool = True,
    ) -> None:
        if max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        validate_data_plane(data_plane, memory_budget_mb)
        self._data_plane = data_plane
        self._memory_budget_mb = memory_budget_mb
        if dataset_loader is None:
            from repro.datasets.registry import (
                load_dataset,
                registered_names,
            )

            # With the built-in loader the resolvable names are known
            # up front — fail at startup on a typo'd tenant config
            # instead of on the first request.  Custom loaders own
            # their namespace and skip this check.  ``registered_names``
            # covers the classic in-memory datasets *and* the
            # disk-backed synthetic tiers.
            known = set(registered_names())
            unknown = [
                name for name in registry.datasets() if name not in known
            ]
            if unknown:
                raise ValidationError(
                    f"tenant config references datasets the built-in "
                    f"registry does not know: {unknown}; available: "
                    f"{sorted(known)}"
                )
            dataset_loader = load_dataset
        self._registry = registry
        self._loader = dataset_loader
        self._max_inflight = int(max_inflight)
        self._in_flight = 0
        if shared_state and state_dir is None:
            raise ValidationError(
                "shared_state requires a state_dir: cluster workers "
                "coordinate through the durable ledger"
            )
        self._store = StateStore(state_dir, fsync=fsync, shared=shared_state)
        registry.attach_journal(self._store.ledger)
        self._coalescer = Coalescer()
        self._sessions: Dict[str, PrivBasisSession] = {}
        self._release_locks: Dict[str, asyncio.Lock] = {}
        self._metrics = ServiceMetrics()
        self._stage_metrics = StageMetrics()
        self._reuse_enabled = bool(reuse)
        self._reuse_metrics = ReuseMetrics(enabled=self._reuse_enabled)
        #: mmap spill directories this process built; removed at stop.
        self._spill_dirs: List[Path] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._started_at = time.monotonic()

    # -- introspection ---------------------------------------------------
    @property
    def registry(self) -> TenantRegistry:
        return self._registry

    @property
    def in_flight(self) -> int:
        """Releases currently admitted (admission-control gauge)."""
        return self._in_flight

    def session_for(self, dataset: str) -> Optional[PrivBasisSession]:
        """The warm session for ``dataset``, if one was built."""
        return self._sessions.get(dataset)

    @property
    def store(self) -> StateStore:
        """The service's :class:`~repro.store.state.StateStore`
        (durable with ``state_dir``, in memory without)."""
        return self._store

    # -- out-of-core data plane ------------------------------------------
    def _build_mmap_backend(self, dataset: str, database):
        """Spill ``database`` into mmap shard segments, return a backend.

        The spill is :meth:`~repro.engine.mmap.MmapShardStore.build`
        fed segment-sized slices of ``database``, so the build holds
        one extra segment, not a second copy of the dataset.

        Each session build spills into a *fresh* per-build directory
        (``<state-dir>/shards/<dataset>/<pid>-<token>/`` when
        persistence is on, a tempdir otherwise).  A fresh spill per
        build is deliberate: WAL replay re-applies ingested deltas
        through ``session.ingest`` → ``backend.extend``, so reusing a
        previous build's segments would double-apply them; and cluster
        workers each build their own session, so a shared directory
        would race.  Nothing ever reopens a leaf, so :meth:`stop`
        removes the ones this process built; only a killed process
        leaves its leaf behind.  A damaged segment is detected when it
        is attached (:class:`~repro.errors.TornSegmentError`).
        """
        import re
        import secrets
        import tempfile

        from repro.engine import mmap
        from repro.engine.sharded import ShardedBackend

        safe = re.sub(r"[^A-Za-z0-9._-]+", "_", dataset) or "dataset"
        root = (
            self._store.root / "shards"
            if self._store.durable
            else Path(tempfile.gettempdir()) / "repro-shards"
        )
        directory = root / safe / f"{os.getpid()}-{secrets.token_hex(4)}"
        self._spill_dirs.append(directory)
        budget = (
            self._memory_budget_mb * 1024 * 1024
            if self._memory_budget_mb is not None
            else None
        )
        step = mmap.DEFAULT_SHARD_SIZE
        store = mmap.MmapShardStore.build(
            directory,
            (
                database.slice(start, start + step)
                for start in range(0, database.num_transactions, step)
            ),
            database.num_items,
            memory_budget_bytes=budget,
        )
        return ShardedBackend(store)

    # -- session lifecycle (coalesced cold starts) -----------------------
    async def _build_session(self, dataset: str) -> PrivBasisSession:
        loop = asyncio.get_running_loop()

        def build() -> PrivBasisSession:
            database = self._loader(dataset)
            if self._data_plane == "mmap":
                # The session is built from the backend alone: its
                # database view comes lazily out of the mmap store.
                # The built-in registry does not memoize tiers, so the
                # loaded copy is garbage once this reference goes.
                backend = self._build_mmap_backend(dataset, database)
                del database
                session = PrivBasisSession(backend)
            else:
                session = PrivBasisSession(database)
            # Replay the dataset's ingested rows through the backend's
            # O(Δ) extend path, served at the version the log recorded
            # — the session comes back where the crash left it.  An
            # in-memory store replays nothing: the session serves the
            # base data as version 0, and the log's watermark keeps the
            # next batch's version past every number already used.
            version, rows = self._store.dataset_log(dataset).replay()
            if rows:
                session.ingest(rows, version=version)
            session.warm_up()
            self._store.recovery.note_dataset(dataset, version)
            return session

        session = await loop.run_in_executor(None, build)
        self._sessions[dataset] = session
        return session

    def _forget_session(self, dataset: str) -> None:
        """Drop ``dataset``'s session; the next request builds it anew
        from the loader and the dataset log."""
        self._sessions.pop(dataset, None)
        self._coalescer.discard(dataset)

    async def get_session(self, dataset: str) -> PrivBasisSession:
        """The dataset's shared session; cold builds are coalesced."""
        return await self._coalescer.get(
            dataset, functools.partial(self._build_session, dataset)
        )

    async def warm_all(self) -> None:
        """Pre-build sessions for every dataset tenants reference."""
        await asyncio.gather(
            *(self.get_session(name) for name in self._registry.datasets())
        )

    # -- admission control ----------------------------------------------
    def _admit(self, weight: int = 1) -> None:
        """Claim ``weight`` in-flight slots or raise 429.

        A batch is weighted by its request count, so ``max_inflight``
        bounds *releases*, not HTTP requests — a batch cannot smuggle
        in more concurrent mining work than the limit allows (which
        also means a batch larger than ``max_inflight`` is always
        refused; raise the limit to serve bigger batches).
        """
        if self._in_flight + weight > self._max_inflight:
            raise OverloadedError(self._in_flight, self._max_inflight)
        self._in_flight += weight

    def _release_slot(self, weight: int = 1) -> None:
        self._in_flight -= weight

    def _lock_for(self, dataset: str) -> asyncio.Lock:
        lock = self._release_locks.get(dataset)
        if lock is None:
            lock = self._release_locks[dataset] = asyncio.Lock()
        return lock

    # -- reuse plane ------------------------------------------------------
    def _reuse_lookup(
        self, tenant: Tenant, snapshot_version: int, k: int,
        epsilon: float,
    ) -> ReuseDecision:
        """Per-tenant reuse decision from the result store."""
        return self._store.results.reuse_lookup(
            tenant.tenant_id, tenant.dataset, snapshot_version, k, epsilon
        )

    # -- release serving -------------------------------------------------
    def _tenant_for(self, body: Mapping[str, Any]) -> Tenant:
        tenant_id = body.get("tenant") if isinstance(body, Mapping) else None
        if not isinstance(tenant_id, str) or not tenant_id:
            raise ValidationError(
                "request needs a 'tenant' string identifying the caller"
            )
        return self._registry.get(tenant_id)

    async def _run_locked(
        self, dataset: str, call: Callable[[PrivBasisSession], Any]
    ) -> Any:
        """Run ``call(session)`` off-loop, serialized per dataset.

        The lock keeps concurrent releases from mutating one session's
        caches from two executor threads at once; releases against
        *different* datasets still run in parallel.  The session is
        looked up once the lock is held, so a request queued behind an
        ingest that dropped the session runs on its rebuild, never on
        the dropped one.
        """
        loop = asyncio.get_running_loop()
        async with self._lock_for(dataset):
            session = await self.get_session(dataset)
            return await loop.run_in_executor(None, call, session)

    def _persist_release(self, tenant: Tenant, result: Any) -> None:
        """Record one released payload: the result WAL (no fsync), the
        bounded history window, and the tenant's reuse index.

        Runs on the event loop thread, like the ε-debit append inside
        :meth:`Tenant.charge` — keeping all appends loop-side is what
        lets :meth:`_barrier` run on a worker thread without racing
        them (the WAL's durability watermark only ever advances to
        appends observed before the fsync).
        """
        self._store.results.record(
            tenant.tenant_id,
            tenant.dataset,
            result.snapshot_version,
            result_to_wire(result),
        )

    async def _barrier(self) -> None:
        """Durability barrier before a response goes on the wire.

        One fsync covers the write-ahead ε debit (appended at charge
        time) and the stored result payload.  It runs in the executor
        so a slow disk stalls only this response, not the event loop;
        overlapping releases whose records an earlier barrier already
        covered skip theirs entirely (group commit).  An in-memory
        store's barrier is a no-op.
        """
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._store.barrier)

    async def handle_release(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/release`` — one ε-DP release for one tenant."""
        tenant = self._tenant_for(body)
        request = parse_release_request(body)
        include_trace = request.pop("trace", False)
        self._admit()
        try:
            session = await self.get_session(tenant.dataset)
            reuse_block: Optional[Dict[str, Any]] = None
            if (
                self._reuse_enabled
                and "planner" not in request
                and "noise" not in request
            ):
                # Reuse-first: a dominated plain request is answered
                # by truncating the tenant's stored release — pure
                # post-processing, so no charge, no lock, no data
                # touched, no noise drawn.  The lookup reads the live
                # snapshot version; entries can only ever be from the
                # same tenant (indexes are per-tenant by construction).
                decision = self._reuse_lookup(
                    tenant, session.snapshot_version,
                    request["k"], request["epsilon"],
                )
                if decision.hit:
                    payload = top_k_truncate(
                        decision.source.payload,
                        request["k"], request["epsilon"],
                    )
                    self._reuse_metrics.hit(request["epsilon"])
                    return {
                        "tenant": tenant.tenant_id,
                        "dataset": tenant.dataset,
                        **payload,
                        "reuse": {
                            "hit": True,
                            "epsilon_charged": 0.0,
                            "epsilon_saved": request["epsilon"],
                            "source": decision.source.describe(),
                        },
                    }
                reuse_block = {"hit": False, "reason": decision.reason}
                self._reuse_metrics.miss()
            # Charge on the event loop thread *before* any noise is
            # drawn: spends are serialized (no budget race) and a
            # failed release after the charge errs on the safe side —
            # budget is forfeited, never refunded.  The debit is
            # write-ahead: _barrier makes it durable before the answer
            # leaves.
            tenant.charge(
                request["epsilon"],
                label=f"release k={request['k']}",
            )
            rng = _fresh_rng()
            result = await self._run_locked(
                tenant.dataset,
                lambda locked: locked.release(rng=rng, **request),
            )
        finally:
            self._release_slot()
        self._stage_metrics.record(result.trace)
        self._persist_release(tenant, result)
        await self._barrier()
        response = {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            **result_to_wire(result, include_trace=include_trace),
        }
        if reuse_block is not None:
            response["reuse"] = reuse_block
        return response

    async def handle_release_batch(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/release_batch`` — all-or-nothing multi-release."""
        tenant = self._tenant_for(body)
        requests = parse_batch_request(body)
        trace_flags = [
            request.pop("trace", False) for request in requests
        ]
        total = sum(request["epsilon"] for request in requests)
        self._admit(weight=len(requests))
        try:
            # Build the session before charging, so a loader failure
            # costs no ε; the batch itself runs on the session looked
            # up again under the lock.
            await self.get_session(tenant.dataset)
            # All-or-nothing admission against the journaled spent
            # value (tenant.remaining), so a freshly recovered ledger
            # and a long-running one refuse an oversized batch through
            # the same check.
            if not tenant.affords(total):
                raise BudgetExceededError(total, tenant.remaining)
            for index, request in enumerate(requests):
                tenant.charge(
                    request["epsilon"],
                    label=f"batch[{index}] k={request['k']}",
                )
            seeded = [
                {**request, "rng": _fresh_rng()} for request in requests
            ]
            results = await self._run_locked(
                tenant.dataset, lambda locked: locked.release_batch(seeded)
            )
        finally:
            self._release_slot(weight=len(requests))
        for result in results:
            self._stage_metrics.record(result.trace)
            self._persist_release(tenant, result)
        await self._barrier()
        return {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "results": [
                result_to_wire(result, include_trace=include_trace)
                for result, include_trace in zip(results, trace_flags)
            ],
        }

    async def handle_ingest(
        self, body: Mapping[str, Any]
    ) -> Dict[str, Any]:
        """``POST /v1/ingest`` — append transactions to a dataset.

        The append goes through the warm session's incremental
        ``extend`` path under the dataset's release lock, so it is
        serialized with in-flight releases (each of which pins the
        snapshot version it ran on) and a cold dataset is still built
        exactly once via the coalescer.  No ε is charged: ingestion
        changes which exact data later mechanisms read, it publishes
        nothing.
        """
        tenant = self._tenant_for(body)
        if not tenant.ingest:
            raise IngestNotAllowedError(tenant.tenant_id)
        transactions = parse_ingest_request(body)
        self._admit()
        try:
            journaled: List[int] = []

            def append(session: PrivBasisSession) -> Tuple[int, int]:
                # Journal-before-apply, under the dataset's release
                # lock (this closure runs inside it).  The batch is
                # fully validated first — building the delta checks
                # vocabulary bounds — so a bad batch answers 400 with
                # neither store nor session touched.  If the WAL append
                # fails the session was never advanced, and a crash
                # before the sync barrier loses only an
                # unacknowledged batch from both sides at once.
                log_store = self._store.dataset_log(tenant.dataset)
                delta = TransactionDatabase(
                    transactions, num_items=session.backend.num_items
                )
                journaled.append(log_store.record_append(transactions))
                version = session.ingest(delta, version=journaled[0])
                log_store.sync()
                return version, session.backend.num_transactions

            try:
                version, total = await self._run_locked(
                    tenant.dataset, append
                )
            except Exception:
                if journaled:
                    # The log holds a batch the session may lack, so
                    # the session must not serve a later version:
                    # the next request rebuilds it from the log.
                    self._forget_session(tenant.dataset)
                raise
        finally:
            self._release_slot()
        # Releases stored on older snapshots stop being reuse sources
        # the moment the data moves; correctness never depends on this
        # (lookups key on the live snapshot version, which the ingest
        # just advanced), it only frees the stale entries.
        if self._reuse_enabled:
            self._store.results.invalidate_reuse(tenant.dataset, version)
        return {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "snapshot_version": version,
            "num_transactions": total,
            "appended": len(transactions),
        }

    async def handle_snapshot(self, tenant_id: str) -> Dict[str, Any]:
        """``GET /v1/snapshot?tenant=…`` — the dataset's data state.

        Reports the snapshot version and size the tenant's dataset
        currently serves.  A cold dataset is built (coalesced) rather
        than guessed at, and the read takes the dataset's lock so a
        concurrent ingest can never produce a torn version/size pair
        — the answer is always the version the next release would pin.
        """
        if not tenant_id:
            raise ValidationError(
                "snapshot queries need a ?tenant=<id> parameter"
            )
        tenant = self._registry.get(tenant_id)
        async with self._lock_for(tenant.dataset):
            session = await self.get_session(tenant.dataset)
            return {
                "tenant": tenant.tenant_id,
                "dataset": tenant.dataset,
                "snapshot_version": session.snapshot_version,
                "num_transactions": session.backend.num_transactions,
                "num_items": session.backend.num_items,
                "num_releases": self._store.results.release_counts().get(
                    tenant.dataset, 0
                ),
            }

    def handle_plan(self, query: Mapping[str, str]) -> Dict[str, Any]:
        """``GET /v1/plan`` — dry-run ε pricing for a release.

        Prices the staged pipeline under the requested planner from
        public parameters only: the handler never builds a session,
        never touches the dataset, and spends nothing from the
        tenant's ledger — it only *reads* the ledger to report whether
        the quoted release would fit the remaining budget.  Analysts
        can therefore shop for (k, ε, planner) combinations for free
        before committing budget to a real release.
        """
        tenant_id = query.get("tenant", "")
        if not tenant_id:
            raise ValidationError(
                "plan queries need a ?tenant=<id> parameter"
            )
        tenant = self._registry.get(tenant_id)
        params = parse_plan_query(query)
        plan = build_plan(
            params["k"], params["epsilon"], planner=params["planner"]
        )
        remaining = tenant.remaining
        response = {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "remaining": remaining,
            "affordable": tenant.affords(params["epsilon"]),
            **plan.describe(),
        }
        if self._reuse_enabled:
            # Price the reuse path too — a hit would cost exactly 0.
            # Only a warm session knows the live snapshot version; a
            # cold dataset stays un-priced rather than building a
            # session inside a handler documented as data-free.
            session = self._sessions.get(tenant.dataset)
            if session is None:
                response["reuse"] = {
                    "available": False,
                    "reason": (
                        "dataset not warm: reuse is priced against "
                        "stored releases on the live snapshot"
                    ),
                }
            else:
                decision = self._reuse_lookup(
                    tenant, session.snapshot_version,
                    params["k"], params["epsilon"],
                )
                if decision.hit:
                    response["reuse"] = {
                        "available": True,
                        "epsilon": 0.0,
                        "source": decision.source.describe(),
                    }
                else:
                    response["reuse"] = {
                        "available": False,
                        "reason": decision.reason,
                    }
        return response

    def handle_budget(self, tenant_id: str) -> Dict[str, Any]:
        """``GET /v1/budget?tenant=…`` — the tenant's ledger snapshot."""
        if not tenant_id:
            raise ValidationError(
                "budget queries need a ?tenant=<id> parameter"
            )
        return self._registry.get(tenant_id).snapshot()

    def handle_results(self, query: Mapping[str, str]) -> Dict[str, Any]:
        """``GET /v1/results?tenant=…[&limit=N]`` — the tenant's
        stored releases.

        Re-reads what the tenant already paid ε for — published noisy
        payloads keyed by ``(dataset, snapshot_version)`` — which is
        free post-processing under DP, so no budget is touched.
        Serves the store's bounded most-recent window (the full
        history stays in the WAL); ``limit`` further trims to the
        newest N.  Only meaningful with persistence: with an in-memory
        store the endpoint answers 400 rather than pretending an
        empty history is a durable one.
        """
        tenant_id = query.get("tenant", "")
        if not tenant_id:
            raise ValidationError(
                "results queries need a ?tenant=<id> parameter"
            )
        tenant = self._registry.get(tenant_id)
        if not self._store.durable:
            raise ValidationError(
                "the service runs without --state-dir; released "
                "results are not persisted"
            )
        limit = None
        if "limit" in query:
            try:
                limit = int(query["limit"])
            except ValueError:
                limit = -1
            if limit < 1:
                raise ValidationError(
                    f"?limit= must be a positive integer, "
                    f"got {query['limit']!r}"
                )
        return {
            "tenant": tenant.tenant_id,
            "dataset": tenant.dataset,
            "results": self._store.results.results_for(
                tenant.tenant_id, limit=limit
            ),
        }

    def handle_healthz(self) -> Dict[str, Any]:
        """``GET /healthz`` — liveness, warm sessions, and (with a
        durable store) what the last restart recovered."""
        persistence: Dict[str, Any] = {"enabled": self._store.durable}
        if self._store.durable:
            persistence["state_dir"] = str(self._store.root)
            persistence["recovery"] = self._store.recovery.to_wire()
        data_plane: Dict[str, Any] = {"plane": self._data_plane}
        if self._data_plane == "mmap":
            from repro.engine.mmap import process_resident_bytes

            resident = process_resident_bytes()
            if resident is not None:
                data_plane["process_resident_bytes"] = resident
            spilled = 0
            datasets: Dict[str, Any] = {}
            for name, session in sorted(self._sessions.items()):
                plane_stats = session.stats().get("data_plane")
                if plane_stats is not None:
                    datasets[name] = plane_stats
                    spilled += int(plane_stats.get("spilled_bytes", 0))
            data_plane["spilled_bytes"] = spilled
            data_plane["datasets"] = datasets
            if self._memory_budget_mb is not None:
                data_plane["memory_budget_bytes"] = (
                    self._memory_budget_mb * 1024 * 1024
                )
        return {
            "status": "ok",
            "datasets": self._registry.datasets(),
            "warm": sorted(self._sessions),
            "tenants": len(self._registry),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "persistence": persistence,
            "data_plane": data_plane,
        }

    def handle_metrics(self) -> Dict[str, Any]:
        """``GET /metrics`` — HTTP, pipeline, coalescer, and cache
        telemetry.  Each warm dataset's release counters come from the
        result store, the one record of what was released."""
        releases = self._store.results.release_counts()
        epsilon = self._store.results.epsilon_by_dataset()
        return {
            "http": self._metrics.snapshot(),
            "in_flight": self._in_flight,
            "max_inflight": self._max_inflight,
            "pipeline": self._stage_metrics.snapshot(),
            "reuse": self._reuse_metrics.snapshot(),
            "coalescer": self._coalescer.stats(),
            "datasets": {
                name: {
                    "num_releases": releases.get(name, 0),
                    "epsilon_spent": epsilon.get(name, 0.0),
                    **session.stats(),
                }
                for name, session in sorted(self._sessions.items())
            },
            "store": {
                "ledger": self._store.ledger.stats(),
                "results": self._store.results.stats(),
            },
        }

    # -- HTTP plumbing ---------------------------------------------------
    async def dispatch(
        self, request: http.HTTPRequest
    ) -> Tuple[int, Dict[str, Any]]:
        """Route one parsed request; never raises for expected errors."""
        try:
            if request.path == "/healthz" and request.method == "GET":
                return 200, self.handle_healthz()
            if request.path == "/metrics" and request.method == "GET":
                return 200, self.handle_metrics()
            if request.path == "/v1/budget" and request.method == "GET":
                return 200, self.handle_budget(
                    request.query.get("tenant", "")
                )
            if request.path == "/v1/results" and request.method == "GET":
                return 200, self.handle_results(request.query)
            if request.path == "/v1/plan" and request.method == "GET":
                return 200, self.handle_plan(request.query)
            if request.path == "/v1/snapshot" and request.method == "GET":
                return 200, await self.handle_snapshot(
                    request.query.get("tenant", "")
                )
            if request.path == "/v1/ingest" and request.method == "POST":
                body = request.json()
                if not isinstance(body, Mapping):
                    raise ValidationError("request body must be an object")
                return 200, await self.handle_ingest(body)
            if request.path == "/v1/release" and request.method == "POST":
                body = request.json()
                if not isinstance(body, Mapping):
                    raise ValidationError("request body must be an object")
                return 200, await self.handle_release(body)
            if (
                request.path == "/v1/release_batch"
                and request.method == "POST"
            ):
                body = request.json()
                if not isinstance(body, Mapping):
                    raise ValidationError("request body must be an object")
                return 200, await self.handle_release_batch(body)
        except http.ProtocolError as error:
            return error.status, {
                "error": "protocol_error",
                "message": str(error),
            }
        except ReproError as error:
            return _status_for(error), error_to_wire(error)
        except Exception as error:  # noqa: BLE001 — boundary catch-all
            # A bug (or a loader failure) must answer as a JSON 500,
            # not kill the connection with an opaque reset.
            traceback.print_exc()
            return 500, {
                "error": "internal_error",
                "message": f"{type(error).__name__}: {error}",
            }
        if request.path in ROUTES:
            return 405, {
                "error": "method_not_allowed",
                "message": f"{request.method} not allowed on {request.path}",
            }
        return 404, {
            "error": "not_found",
            "message": f"no route for {request.path}",
        }

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    request = await http.read_request(reader)
                except http.ProtocolError as error:
                    http.write_response(
                        writer,
                        error.status,
                        {"error": "protocol_error", "message": str(error)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                started = time.monotonic()
                status, payload = await self.dispatch(request)
                latency_ms = (time.monotonic() - started) * 1000.0
                route = (
                    request.path if request.path in ROUTES else "unknown"
                )
                self._metrics.record(route, status, latency_ms)
                http.write_response(
                    writer, status, payload, keep_alive=request.keep_alive
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # stop() cancels idle keep-alive connections; finish the
            # task normally or asyncio.streams' done-callback logs the
            # cancellation as an unhandled exception.
            pass
        finally:
            writer.close()
            try:
                await asyncio.shield(writer.wait_closed())
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def start(
        self, host: str = "127.0.0.1", port: int = 8008
    ) -> Tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``.

        Pass ``port=0`` to bind an ephemeral port (tests/benchmarks).
        """
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Stop accepting connections and close the listener.

        Open keep-alive connections are cancelled and awaited so no
        half-closed sockets or orphan tasks outlive the service, and
        every warm session is closed — which closes the spill store
        (and drops its mapped segments) of every mmap-plane dataset —
        and forgotten, before the spill directories this process built
        are removed.  Both data planes restart alike, as a new process
        would: a later :meth:`start` builds each session again from the
        loader and the dataset log.  A durable one replays its ingested
        rows; an in-memory one serves the base data as version 0 again
        and numbers its next batch past every version already used.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._connections.clear()
        for dataset, session in list(self._sessions.items()):
            session.close()
            self._forget_session(dataset)
        for directory in self._spill_dirs:
            shutil.rmtree(directory, ignore_errors=True)
        self._spill_dirs.clear()
        # Barrier + close every WAL handle.  Purely tidy-up: the
        # durability contract never depends on a clean shutdown (that
        # is the whole point), and the store reopens handles lazily if
        # the service is started again.
        self._store.close()

    @asynccontextmanager
    async def serving(self, host: str = "127.0.0.1", port: int = 0):
        """``async with service.serving() as (host, port): …``"""
        bound = await self.start(host, port)
        try:
            yield bound
        finally:
            await self.stop()

    async def serve_forever(self) -> None:
        """Block serving until cancelled (the CLI entrypoint's loop)."""
        if self._server is None:
            raise ValidationError("call start() before serve_forever()")
        await self._server.serve_forever()
