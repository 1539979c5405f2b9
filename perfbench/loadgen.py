"""The load generator: one client process, at most two connections.

Usage (``run.py`` writes the plan)::

    python3 perfbench/loadgen.py PLAN.json RECORDS.json

It speaks HTTP/1.1 keep-alive over raw asyncio streams and imports
nothing from the program under test, so client-side cost stays fixed
across versions of the service.

Plan keys: ``port``, ``loop`` (``"closed"`` or ``"open"``), ``seconds``,
``connections``, ``closed`` (per connection, the ``[op, tenant, method,
path, body]`` requests it cycles through, each sent when the previous
one is answered), ``open`` (``[due_s, op, tenant, method, path, body]``
rows, sent on schedule on whichever connection is free) and ``truth``
(``{k: [itemset, ...]}`` for F1).

Every response becomes one record; see :func:`record_for`.  In the
open loop a request's latency is measured from its due time, so a stall
also charges the requests queued behind it, and how late the generator
itself handed each request over is recorded as ``late``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
import time
from typing import Dict, List, Optional


class Connection:
    """One keep-alive HTTP connection to the service."""

    def __init__(self, index: int, port: int) -> None:
        self.index = index
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 24
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass

    async def call(self, method: str, path: str, body, request_id: str):
        """One round trip; returns ``(status, payload)``."""
        data = b"" if body is None else json.dumps(
            body, separators=(",", ":")).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: privbasis\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"X-Request-Id: {request_id}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + data)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(payload) if payload else None)


def f1(itemsets: List[dict], truth: Optional[List[List[int]]]) -> Optional[float]:
    """F1 of the released itemsets against the exact top-k."""
    if truth is None or not itemsets:
        return None
    released = {tuple(entry["items"]) for entry in itemsets}
    exact = {tuple(items) for items in truth}
    hits = len(released & exact)
    if not hits:
        return 0.0
    precision, recall = hits / len(released), hits / len(exact)
    return 2 * precision * recall / (precision + recall)


def record_for(request_id: str, connection: int, phase: str, op: str,
               tenant: str, body, status: int, payload,
               times: Dict[str, float], truth: Dict[str, list]) -> dict:
    """The record of one response (all times in seconds from t0)."""
    record = {"id": request_id, "conn": connection, "phase": phase,
              "op": op, "tenant": tenant, "status": status, **times}
    if status != 200 or not isinstance(payload, dict):
        record["error"] = payload
        return record
    if "snapshot_version" in payload:
        record["version"] = payload["snapshot_version"]
    if op != "release":
        return record
    reuse = payload.get("reuse") or {}
    hit = bool(reuse.get("hit"))
    itemsets = payload.get("itemsets") or []
    record.update(
        k=body["k"], epsilon=body["epsilon"], hit=hit,
        charged=float(reuse["epsilon_charged"]) if hit else body["epsilon"],
        count=len(itemsets),
        finite=all(math.isfinite(entry["noisy_frequency"])
                   for entry in itemsets),
        f1=f1(itemsets, truth.get(str(body["k"]))),
    )
    trace = payload.get("trace")
    if trace:
        record.update(lam=trace.get("lam"), branch=trace.get("branch"))
    return record


async def run(plan: dict) -> List[dict]:
    truth = plan.get("truth", {})
    connections = [Connection(index, plan["port"])
                   for index in range(plan["connections"])]
    for connection in connections:
        await connection.open()
    records: List[dict] = []
    counter = iter(range(1 << 62))
    t0 = time.perf_counter()

    def now() -> float:
        return time.perf_counter() - t0

    async def send(connection, phase, op, tenant, method, path, body,
                   times):
        request_id = f"{phase}-{next(counter)}"
        times["sent"] = now()
        try:
            status, payload = await connection.call(
                method, path, body, request_id)
        except (OSError, asyncio.IncompleteReadError, ValueError) as error:
            status, payload = 0, f"{type(error).__name__}: {error}"
        times["done"] = now()
        records.append(record_for(request_id, connection.index, phase, op,
                                  tenant, body, status, payload, times,
                                  truth))

    seconds = plan["seconds"]
    if plan["loop"] == "closed":
        async def client(connection, cycle):
            step = 0
            while now() < seconds:
                await send(connection, "window", *cycle[step % len(cycle)],
                           {})
                step += 1

        await asyncio.gather(*(
            client(connection, cycle)
            for connection, cycle in zip(connections, plan["closed"])
        ))
    else:
        queue: asyncio.Queue = asyncio.Queue()

        async def worker(connection):
            while True:
                item = await queue.get()
                if item is None:
                    return
                row, late = item
                await send(connection, "window", *row[1:],
                           {"due": row[0], "late": late})

        workers = [asyncio.ensure_future(worker(connection))
                   for connection in connections]
        for row in plan["open"]:
            delay = row[0] - now()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((row, now() - row[0]))
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    for connection in connections:
        await connection.close()
    return records


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    records = asyncio.run(run(plan))
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
