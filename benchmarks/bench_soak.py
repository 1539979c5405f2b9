"""Cluster soak benchmark: sustained multi-tenant load under faults.

Replays hundreds of thousands of synthetic requests against a real
:class:`~repro.service.cluster.PrivBasisCluster` — N spawned worker
processes behind the dataset-affinity router, sharing one durable
``state_dir`` — while a fault injector ``SIGKILL``s workers mid-flight
and the supervisor restarts them.  After **every** kill (and at the
end of every leg) the cluster-wide ledger invariant is checked straight
from the journal files:

    journaled spent ε  ≥  ε of the releases clients actually received

per tenant (:func:`repro.store.read_spent_totals`).  A crash may
forfeit budget, never mint it; any violation fails the run.

The request mix models an analyst fleet: mostly cheap reads
(``/v1/snapshot``, ``/v1/budget``), ~10% paid releases, ~2% ingests.
Latency is recorded per request and reported as p50/p99 per worker
count into ``BENCH_service.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_soak.py
    PYTHONPATH=src python benchmarks/bench_soak.py --smoke   # CI

``--smoke`` runs one small leg (2 workers, a few hundred requests,
one kill) so CI exercises the whole cluster path — spawn, router,
shared ledger, kill, restart, invariant — on every push; it writes no
file unless ``--output`` names one.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import time
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Dict, List, Optional, Tuple

from repro.datasets.synthetic import QUEST_LOADER_SPEC
from repro.errors import OverloadedError, WorkerUnavailableError
from repro.service import ClusterConfig, PrivBasisCluster, ServiceClient
from repro.store import read_spent_totals

#: (workers, requests) legs of the full sweep.  The last leg is the
#: acceptance scenario: >= 100k requests across >= 4 workers.
SWEEP: List[Tuple[int, int]] = [(1, 5_000), (2, 5_000), (4, 100_000)]
SMOKE_SWEEP: List[Tuple[int, int]] = [(2, 400)]

NUM_TENANTS = 8
NUM_DATASETS = 4
CONCURRENCY = 16
MAX_INFLIGHT = 32
KILLS_PER_LEG = 3
SMOKE_KILLS = 1
RELEASE_EPSILON = 1e-4
EPSILON_LIMIT = 1e9

#: Request mix by cumulative per-mille bucket of the request index.
RELEASE_PERMILLE = 100   # 10.0% POST /v1/release
INGEST_PERMILLE = 120    # +2.0% POST /v1/ingest
BUDGET_PERMILLE = 170    # +5.0% GET /v1/budget ; rest GET /v1/snapshot


def tenant_mapping() -> Dict[str, Dict[str, object]]:
    """Tenants spread over the soak datasets (quest loader names)."""
    return {
        f"soak-{index}": {
            "dataset": f"soak/{index % NUM_DATASETS}",
            "epsilon_limit": EPSILON_LIMIT,
        }
        for index in range(NUM_TENANTS)
    }


def percentile(sorted_values: List[float], fraction: float) -> float:
    """The ``fraction`` percentile of an already-sorted sample."""
    if not sorted_values:
        return float("nan")
    rank = min(
        len(sorted_values) - 1,
        int(round(fraction * (len(sorted_values) - 1))),
    )
    return sorted_values[rank]


class SoakStats:
    """Per-leg counters, latencies, and the acked-ε floor.

    ``acked`` only grows when a client *received* a 2xx for a release,
    so snapshotting it before reading the journal gives a valid lower
    bound: write-ahead + the pre-response barrier mean every acked
    release's debit was durable before the ack existed.
    """

    def __init__(self) -> None:
        self.ok = 0
        self.unavailable = 0
        self.overloaded = 0
        self.latencies_ms: List[float] = []
        self.release_latencies_ms: List[float] = []
        self.acked: Dict[str, float] = {}

    def record(
        self, kind: str, tenant: str, outcome: str, elapsed_ms: float
    ) -> None:
        self.latencies_ms.append(elapsed_ms)
        if outcome == "ok":
            self.ok += 1
            if kind == "release":
                self.release_latencies_ms.append(elapsed_ms)
                self.acked[tenant] = (
                    self.acked.get(tenant, 0.0) + RELEASE_EPSILON
                )
        elif outcome == "unavailable":
            self.unavailable += 1
        else:
            self.overloaded += 1

    def check_invariant(self, state_dir: str) -> List[str]:
        """Journaled spent ε must cover every acked release's ε."""
        floor = dict(self.acked)  # snapshot BEFORE reading the journal
        totals = read_spent_totals(state_dir)
        return [
            f"{tenant}: journaled {totals.get(tenant, 0.0):.6f} < "
            f"acked {spent:.6f}"
            for tenant, spent in floor.items()
            if totals.get(tenant, 0.0) < spent - 1e-9
        ]


async def drive_one(
    client: ServiceClient, index: int, stats: SoakStats
) -> None:
    """Issue request ``index`` per the mix and record its outcome."""
    tenant = f"soak-{index % NUM_TENANTS}"
    bucket = index % 1000
    if bucket < RELEASE_PERMILLE:
        kind = "release"
    elif bucket < INGEST_PERMILLE:
        kind = "ingest"
    elif bucket < BUDGET_PERMILLE:
        kind = "budget"
    else:
        kind = "snapshot"
    started = time.perf_counter()
    outcome = "ok"
    try:
        if kind == "release":
            await client.release(
                k=3, epsilon=RELEASE_EPSILON, tenant=tenant
            )
        elif kind == "ingest":
            await client.ingest([[index % 9, 9]], tenant=tenant)
        elif kind == "budget":
            await client.budget(tenant=tenant)
        else:
            await client.snapshot(tenant=tenant)
    except WorkerUnavailableError:
        outcome = "unavailable"
    except OverloadedError:
        outcome = "overloaded"
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    stats.record(kind, tenant, outcome, elapsed_ms)


async def run_leg(
    workers: int,
    total_requests: int,
    kills: int,
    state_dir: str,
) -> Dict[str, object]:
    """One sweep leg: a fresh cluster, the mix, the fault injector."""
    config = ClusterConfig(
        tenants=tenant_mapping(),
        state_dir=state_dir,
        num_workers=workers,
        loader_spec=QUEST_LOADER_SPEC,
        max_inflight=MAX_INFLIGHT,
    )
    cluster = PrivBasisCluster(config)
    stats = SoakStats()
    violations: List[str] = []
    issued = 0

    async with cluster.serving() as (host, port):

        async def client_loop() -> None:
            nonlocal issued
            async with ServiceClient(host, port) as client:
                while True:
                    index = issued
                    if index >= total_requests:
                        return
                    issued += 1
                    await drive_one(client, index, stats)

        async def fault_injector() -> None:
            kill_points = [
                total_requests * (point + 1) // (kills + 1)
                for point in range(kills)
            ]
            for number, kill_at in enumerate(kill_points):
                while issued < kill_at:
                    await asyncio.sleep(0.05)
                # Kill the worker *owning* a dataset in the mix, so
                # every injected fault disrupts live traffic instead
                # of an idle worker (rendezvous hashing can leave one).
                owner = cluster.router.owner_for(
                    f"soak/{number % NUM_DATASETS}"
                )
                victim = (
                    owner.index if owner is not None else number % workers
                )
                cluster.kill_worker(victim)
                print(
                    f"    kill #{number + 1}: worker {victim} at "
                    f"request {issued}/{total_requests}"
                )
                await asyncio.sleep(0.2)
                found = stats.check_invariant(state_dir)
                violations.extend(found)
                for line in found:
                    print(f"    INVARIANT VIOLATION: {line}")

        started = time.perf_counter()
        tasks = [
            asyncio.create_task(client_loop())
            for _ in range(CONCURRENCY)
        ]
        injector = asyncio.create_task(fault_injector())
        await asyncio.gather(*tasks)
        injector.cancel()
        try:
            await injector
        except asyncio.CancelledError:
            pass
        wall_s = time.perf_counter() - started
        # Let in-flight respawns finish so the restart count reflects
        # every injected kill (the traffic may outrun the supervisor).
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 15.0
        while (
            cluster.router.healthy_count() < workers
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.1)
        restarts = cluster.restarts

    # Final check with the cluster stopped: the journal alone answers.
    violations.extend(stats.check_invariant(state_dir))

    ordered = sorted(stats.latencies_ms)
    releases = sorted(stats.release_latencies_ms)
    return {
        "workers": workers,
        "requests": total_requests,
        "kills": kills,
        "restarts": restarts,
        "ok": stats.ok,
        "unavailable": stats.unavailable,
        "overloaded": stats.overloaded,
        "invariant_violations": len(violations),
        "violation_detail": violations,
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(total_requests / wall_s, 1),
        "p50_ms": round(percentile(ordered, 0.50), 3),
        "p99_ms": round(percentile(ordered, 0.99), 3),
        "release_p50_ms": round(percentile(releases, 0.50), 3),
        "release_p99_ms": round(percentile(releases, 0.99), 3),
    }


async def run_benchmark(smoke: bool) -> List[Dict[str, object]]:
    """Run every sweep leg, each against a fresh state directory."""
    sweep = SMOKE_SWEEP if smoke else SWEEP
    kills = SMOKE_KILLS if smoke else KILLS_PER_LEG
    results: List[Dict[str, object]] = []
    for workers, total_requests in sweep:
        print(
            f"== leg: {workers} worker(s), {total_requests} requests, "
            f"{kills} kill(s) =="
        )
        with TemporaryDirectory(prefix="soak-state-") as state_dir:
            leg = await run_leg(
                workers, total_requests, kills, state_dir
            )
        results.append(leg)
        print(
            f"    {leg['ok']} ok / {leg['unavailable']} unavailable / "
            f"{leg['overloaded']} overloaded; "
            f"{leg['restarts']} restart(s); "
            f"p50={leg['p50_ms']}ms p99={leg['p99_ms']}ms; "
            f"{leg['throughput_rps']} req/s; "
            f"violations={leg['invariant_violations']}"
        )
    return results


def main(argv: Optional[List[str]] = None) -> int:
    """Run the soak sweep and write ``BENCH_service.json``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one small leg (2 workers, ~400 requests, one kill) — "
             "the CI cluster-path check",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="JSON output path (default: BENCH_service.json at the "
             "repo root; --smoke writes no file unless given one)",
    )
    arguments = parser.parse_args(argv)

    results = asyncio.run(run_benchmark(arguments.smoke))

    payload = {
        "benchmark": "bench_soak",
        "cpu_count": os.cpu_count() or 1,
        "smoke": arguments.smoke,
        "config": {
            "tenants": NUM_TENANTS,
            "datasets": NUM_DATASETS,
            "concurrency": CONCURRENCY,
            "max_inflight": MAX_INFLIGHT,
            "release_epsilon": RELEASE_EPSILON,
            "mix_permille": {
                "release": RELEASE_PERMILLE,
                "ingest": INGEST_PERMILLE - RELEASE_PERMILLE,
                "budget": BUDGET_PERMILLE - INGEST_PERMILLE,
                "snapshot": 1000 - BUDGET_PERMILLE,
            },
        },
        "results": results,
    }
    # A smoke run must not overwrite the committed full-scale results.
    if arguments.output or not arguments.smoke:
        output = Path(
            arguments.output
            or Path(__file__).resolve().parent.parent
            / "BENCH_service.json"
        )
        output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {output}")

    total_violations = sum(
        leg["invariant_violations"] for leg in results
    )
    if total_violations:
        print(f"FAILED: {total_violations} ledger invariant violation(s)")
        return 1
    if arguments.smoke:
        print("smoke ok: cluster served, survived a kill, ledger exact")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
