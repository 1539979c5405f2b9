"""Cluster front door: dataset-affinity routing over worker processes.

The :class:`ClusterRouter` is the single listener clients talk to when
the service runs as a multi-process cluster
(:mod:`repro.service.cluster`).  It speaks the same stdlib HTTP framing
as the workers (:mod:`repro.service.http`) and forwards request bodies
**byte-for-byte** — it never re-encodes JSON, never inspects payloads
beyond the ``tenant`` field it routes on, and never touches noise or ε.

Routing is **rendezvous hashing on the dataset**: each request's tenant
is mapped to its dataset (the router is handed the tenant→dataset
binding at construction) and the dataset's highest-scoring *healthy*
worker owns it.  Dataset affinity is what makes the cluster behave like
one service:

* a cold dataset hit by a thundering herd lands on one worker, whose
  in-process coalescer builds the session exactly once cluster-wide;
* ingests and releases for a dataset serialize on that worker's
  per-dataset lock, so snapshot versions stay linear;
* when a worker dies, rendezvous hashing moves only *its* datasets to
  survivors — the others keep their warm sessions.

Failure semantics are asymmetric by design (see
:class:`~repro.errors.WorkerUnavailableError`): a ``GET`` that loses
its worker is retried on the surviving owners (reads are free and
idempotent), while a ``POST`` that may have reached a worker is
**never** resent — a replayed release could charge a tenant's ε ledger
twice — and surfaces a structured 503 instead.  Because every debit is
journaled write-ahead in the shared ledger, the failed POST can at
worst *over*-count spent budget, never under-count it.

The router answers ``GET /healthz`` itself (cluster topology and
worker health) and fans ``GET /metrics`` out to every healthy worker,
returning ``{"workers": {index: payload}}``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from contextlib import asynccontextmanager
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)
from urllib.parse import urlencode

from repro.errors import WorkerUnavailableError, error_to_wire
from repro.service import http

__all__ = ["ClusterRouter", "WorkerEndpoint"]

#: Keep-alive connections pooled per worker endpoint.  Beyond this the
#: router opens (and afterwards closes) fresh connections — the pool
#: bounds idle sockets, not concurrency.
POOL_LIMIT = 8


def _rendezvous_score(key: str, index: int) -> int:
    """The rendezvous (highest-random-weight) score of ``key`` on
    worker ``index`` — a 64-bit keyed hash; the healthy worker with
    the highest score owns the key."""
    digest = hashlib.blake2b(
        f"{key}|{index}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class WorkerEndpoint:
    """One worker's address plus a small keep-alive connection pool.

    Pooled connections are validated on checkout (``at_eof`` /
    ``is_closing`` means the worker closed or died since the last use)
    so a stale socket is discarded instead of failing a request —
    which matters most for POSTs, where a send-then-die looks like a
    real loss and must surface as 503.
    """

    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = int(index)
        self.host = host
        self.port = int(port)
        self._pool: List[
            Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = []

    async def acquire(
        self,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """A live connection to the worker (pooled or fresh).

        Raises ``OSError`` when the worker no longer accepts — the
        router treats that as the worker being gone.
        """
        while self._pool:
            reader, writer = self._pool.pop()
            if reader.at_eof() or writer.is_closing():
                writer.close()
                continue
            return reader, writer
        return await asyncio.open_connection(self.host, self.port)

    def release(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Return a healthy connection to the pool (or close it)."""
        if (
            not reader.at_eof()
            and not writer.is_closing()
            and len(self._pool) < POOL_LIMIT
        ):
            self._pool.append((reader, writer))
        else:
            writer.close()

    def close(self) -> None:
        """Drop every pooled connection (endpoint leaves routing)."""
        while self._pool:
            _reader, writer = self._pool.pop()
            writer.close()


class ClusterRouter:
    """Route client requests to worker processes by dataset affinity.

    Parameters
    ----------
    tenant_datasets:
        ``{tenant_id: dataset_name}`` — the binding the router hashes
        on.  Requests naming an unknown tenant are still routed
        (deterministically, by the tenant string) so the owning worker
        can answer its usual 404.
    info:
        Optional callable returning extra key/value pairs merged into
        the ``/healthz`` payload (the cluster supervisor reports its
        restart count through this).

    Lifecycle mirrors :class:`~repro.service.app.PrivBasisService`:
    :meth:`start` / :meth:`serve_forever` / :meth:`stop`, or the
    :meth:`serving` context manager.  Workers enter routing via
    :meth:`set_worker` and leave it only via :meth:`mark_down` — a
    marked-down worker never silently rejoins; the supervisor kills it
    and registers a *fresh* process, so no stale session state can
    re-enter the cluster.
    """

    def __init__(
        self,
        tenant_datasets: Mapping[str, str],
        info: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self._tenant_datasets = {
            str(tenant): str(dataset)
            for tenant, dataset in tenant_datasets.items()
        }
        self._info = info
        self._workers: Dict[int, WorkerEndpoint] = {}
        self._down: Set[int] = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()
        self._started_at = time.monotonic()
        self._proxied = 0
        self._unavailable = 0

    # -- membership ------------------------------------------------------
    def set_worker(self, index: int, host: str, port: int) -> None:
        """Register (or replace) worker ``index`` at ``host:port``.

        Replacing an endpoint closes the old pool first; the index is
        cleared from the down set — the supervisor calls this only
        with a freshly spawned process.
        """
        index = int(index)
        old = self._workers.pop(index, None)
        if old is not None:
            old.close()
        self._down.discard(index)
        self._workers[index] = WorkerEndpoint(index, host, port)

    def mark_down(self, index: int) -> None:
        """Remove worker ``index`` from routing (it stays down until
        the supervisor registers a fresh replacement)."""
        index = int(index)
        endpoint = self._workers.pop(index, None)
        if endpoint is not None:
            endpoint.close()
        self._down.add(index)

    def down_indexes(self) -> Set[int]:
        """Worker indexes currently excluded from routing — what the
        supervisor polls to know whom to kill and respawn."""
        return set(self._down)

    def healthy_count(self) -> int:
        """Workers currently in routing."""
        return len(self._workers)

    def owner_for(self, key: str) -> Optional[WorkerEndpoint]:
        """The healthy worker owning ``key`` (rendezvous hashing), or
        ``None`` when no worker is in routing."""
        best: Optional[WorkerEndpoint] = None
        best_score = -1
        for index, endpoint in self._workers.items():
            score = _rendezvous_score(key, index)
            if score > best_score:
                best, best_score = endpoint, score
        return best

    # -- routing ---------------------------------------------------------
    def _routing_key(self, request: http.HTTPRequest) -> str:
        """The affinity key for one request.

        Tenant from the query string (GETs) or the JSON body (POSTs),
        mapped to its dataset.  Unknown tenants hash by the raw tenant
        string, tenant-less requests by path — either way the choice
        is deterministic, which is all correctness needs (the worker
        answers the 404/400 itself).
        """
        tenant = request.query.get("tenant")
        if tenant is None and request.body:
            try:
                body = json.loads(request.body)
            except (UnicodeDecodeError, json.JSONDecodeError):
                body = None
            if isinstance(body, dict):
                value = body.get("tenant")
                if isinstance(value, str):
                    tenant = value
        if tenant:
            return self._tenant_datasets.get(tenant, tenant)
        return request.path

    @staticmethod
    def _target(request: http.HTTPRequest) -> str:
        """Rebuild the request target (path + query) for forwarding."""
        if request.query:
            return f"{request.path}?{urlencode(request.query)}"
        return request.path

    @staticmethod
    def _unavailable_body(detail: str) -> bytes:
        return http.encode_json(
            error_to_wire(WorkerUnavailableError(detail))
        )

    async def _proxy(
        self, request: http.HTTPRequest
    ) -> Tuple[int, bytes]:
        """Forward one request to its owning worker.

        The retry ladder encodes the ε-safety asymmetry:

        * **connect failed** — nothing was sent; mark the worker down
          and re-route (safe for any method, including POST).
        * **send/receive failed** — the worker may have processed the
          request.  ``GET``s re-route to the surviving owner; a
          ``POST`` answers 503 ``worker_unavailable`` immediately,
          because replaying it could double-charge the tenant's
          ledger.

        Every failure marks a worker down, so the loop strictly
        shrinks the healthy set and terminates — at worst with a 503
        when no workers remain.
        """
        key = self._routing_key(request)
        target = self._target(request)
        while True:
            endpoint = self.owner_for(key)
            if endpoint is None:
                self._unavailable += 1
                return 503, self._unavailable_body(
                    "no healthy workers in routing"
                )
            try:
                reader, writer = await endpoint.acquire()
            except OSError:
                # Nothing was sent: the worker is gone (its ephemeral
                # port refuses).  Safe to re-route any method.
                self.mark_down(endpoint.index)
                continue
            try:
                http.write_raw_request(
                    writer, request.method, target, request.body
                )
                await writer.drain()
                status, body = await http.read_raw_response(reader)
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                http.ProtocolError,
            ):
                writer.close()
                self.mark_down(endpoint.index)
                if request.method == "GET":
                    continue
                self._unavailable += 1
                return 503, self._unavailable_body(
                    f"worker {endpoint.index} died mid-request; not "
                    f"replaying a {request.method} (a replay could "
                    f"double-charge the tenant's budget)"
                )
            endpoint.release(reader, writer)
            self._proxied += 1
            return status, body

    # -- router-answered endpoints ---------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        """The router's own ``GET /healthz`` answer: topology, not
        worker internals (each worker answers its own healthz)."""
        payload: Dict[str, Any] = {
            "status": "ok" if self._workers else "degraded",
            "role": "router",
            "workers": {
                str(index): {
                    "host": endpoint.host,
                    "port": endpoint.port,
                    "healthy": True,
                }
                for index, endpoint in sorted(self._workers.items())
            },
            "down": sorted(self._down),
            "proxied": self._proxied,
            "unavailable": self._unavailable,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }
        if self._info is not None:
            payload.update(self._info())
        return payload

    async def metrics_payload(self) -> Dict[str, Any]:
        """Fan ``GET /metrics`` out to every healthy worker.

        Returns ``{"workers": {index: metrics}}`` — callers that want
        a cluster-wide figure (e.g. how many cold-start builds ran)
        sum across the per-worker payloads.  A worker that fails the
        fan-out is marked down and reported as an error entry rather
        than failing the whole read.
        """

        async def fetch(endpoint: WorkerEndpoint) -> Tuple[str, Any]:
            try:
                reader, writer = await endpoint.acquire()
                http.write_raw_request(writer, "GET", "/metrics")
                await writer.drain()
                _status, body = await http.read_raw_response(reader)
            except (
                ConnectionError,
                OSError,
                asyncio.IncompleteReadError,
                http.ProtocolError,
            ):
                self.mark_down(endpoint.index)
                return str(endpoint.index), {
                    "error": "worker_unavailable"
                }
            endpoint.release(reader, writer)
            return str(endpoint.index), json.loads(body)

        entries = await asyncio.gather(
            *(fetch(endpoint) for endpoint in list(self._workers.values()))
        )
        return {"role": "router", "workers": dict(entries)}

    # -- HTTP plumbing ---------------------------------------------------
    async def dispatch(
        self, request: http.HTTPRequest
    ) -> Tuple[int, bytes]:
        """Answer or forward one parsed request (body stays raw)."""
        if request.path == "/healthz" and request.method == "GET":
            return http.encode_response(200, self.health_payload())
        if request.path == "/metrics" and request.method == "GET":
            return http.encode_response(200, await self.metrics_payload())
        return await self._proxy(request)

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
                status, body = await self.dispatch(request)
                http.write_raw_response(
                    writer, status, body, keep_alive=request.keep_alive
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # stop() cancels idle keep-alive connections
        finally:
            writer.close()
            try:
                await asyncio.shield(writer.wait_closed())
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and start routing; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        """Block routing until cancelled (the CLI entrypoint's loop)."""
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the listener, open connections, and worker pools."""
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
        for endpoint in self._workers.values():
            endpoint.close()

    @asynccontextmanager
    async def serving(self, host: str = "127.0.0.1", port: int = 0):
        """``async with router.serving() as (host, port): …``"""
        bound = await self.start(host, port)
        try:
            yield bound
        finally:
            await self.stop()
