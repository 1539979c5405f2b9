"""``python -m repro.service`` — run the PrivBasis network service.

Examples::

    python -m repro.service                         # demo tenants
    python -m repro.service --port 9000 --warm
    python -m repro.service --tenants tenants.json

The tenants file is a JSON object mapping tenant ids to
``{"dataset": <registry name>, "epsilon_limit": <float>}``; without
one, two demo tenants (``alice``/``bob`` on ``mushroom``) are served.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from repro.errors import ValidationError
from repro.service.app import (
    DEFAULT_MAX_INFLIGHT,
    PrivBasisService,
    validate_data_plane,
)
from repro.service.registry import TenantRegistry


def build_parser() -> argparse.ArgumentParser:
    """The ``repro.service`` argument parser (reused by the CLI)."""
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description="Multi-tenant PrivBasis release service.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port", type=int, default=8008,
        help="bind port (0 for ephemeral)",
    )
    parser.add_argument(
        "--tenants", metavar="FILE", default=None,
        help="JSON tenant config; defaults to the two demo tenants",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="admission bound on concurrent releases (429 beyond)",
    )
    parser.add_argument(
        "--warm", action="store_true",
        help="pre-build every tenant dataset's session before serving",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run N worker processes behind a routing front door "
             "(requires --state-dir: workers coordinate ε admission "
             "through the shared durable ledger); 0 (default) serves "
             "from a single process",
    )
    parser.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="durable state directory (write-ahead ε ledgers, ingest "
             "logs, released results); restart with the same DIR to "
             "recover pre-crash state — omit for in-memory only",
    )
    parser.add_argument(
        "--fsync", choices=["batch", "always"],
        default="batch",
        help="WAL fsync policy for --state-dir (default: batch — one "
             "barrier per release)",
    )
    parser.add_argument(
        "--data-plane", choices=["memory", "mmap"], default="memory",
        help="where datasets live: 'memory' (default) keeps every "
             "dataset RAM-resident behind the bitmap backend; 'mmap' "
             "spills transactions to memory-mapped shard segments and "
             "counts them on a thread pool (bit-identical releases, "
             "bounded resident memory)",
    )
    parser.add_argument(
        "--memory-budget-mb", type=int, default=None, metavar="MB",
        help="resident shard-cache budget; needs --data-plane mmap "
             "(default: engine default, 256 MiB per dataset)",
    )
    parser.add_argument(
        "--no-reuse", action="store_true",
        help="disable the cross-release reuse plane: every release "
             "runs the mechanism fresh instead of answering dominated "
             "(k, epsilon) requests from the tenant's stored releases "
             "at zero epsilon",
    )
    return parser


async def _run_cluster(arguments: argparse.Namespace) -> int:
    """Serve ``--workers N`` processes behind the cluster router."""
    import json

    from repro.service.cluster import ClusterConfig, PrivBasisCluster

    if arguments.tenants:
        with open(arguments.tenants, "r", encoding="utf-8") as handle:
            tenants = json.load(handle)
    else:
        tenants = {
            "alice": {"dataset": "mushroom", "epsilon_limit": 5.0},
            "bob": {"dataset": "mushroom", "epsilon_limit": 2.0},
        }
    config = ClusterConfig(
        tenants=tenants,
        state_dir=arguments.state_dir,
        num_workers=arguments.workers,
        fsync=arguments.fsync,
        max_inflight=arguments.max_inflight,
        data_plane=arguments.data_plane,
        memory_budget_mb=arguments.memory_budget_mb,
        reuse=not arguments.no_reuse,
    )
    cluster = PrivBasisCluster(config)
    host, port = await cluster.start(arguments.host, arguments.port)
    print(
        f"privbasis cluster on http://{host}:{port} "
        f"({arguments.workers} workers, shared state in "
        f"{arguments.state_dir}, fsync={arguments.fsync})"
    )
    try:
        await cluster.router.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await cluster.stop()
    return 0


async def _run(arguments: argparse.Namespace) -> int:
    if arguments.workers:
        if not arguments.state_dir:
            print(
                "--workers requires --state-dir (cluster workers "
                "coordinate ε admission through the shared ledger)",
                file=sys.stderr,
            )
            return 2
        return await _run_cluster(arguments)
    registry = (
        TenantRegistry.from_json_file(arguments.tenants)
        if arguments.tenants
        else TenantRegistry.demo()
    )
    service = PrivBasisService(
        registry,
        max_inflight=arguments.max_inflight,
        state_dir=arguments.state_dir,
        fsync=arguments.fsync,
        data_plane=arguments.data_plane,
        memory_budget_mb=arguments.memory_budget_mb,
        reuse=not arguments.no_reuse,
    )
    if arguments.no_reuse:
        print("reuse plane: disabled (--no-reuse)")
    if arguments.data_plane == "mmap":
        print(
            "data plane: mmap (out-of-core shard segments"
            + (
                f", budget {arguments.memory_budget_mb} MiB"
                if arguments.memory_budget_mb
                else ""
            )
            + ")"
        )
    if arguments.state_dir:
        recovered = service.store.recovery
        print(
            f"durable state in {arguments.state_dir} "
            f"(fsync={arguments.fsync}): recovered "
            f"{len(recovered.tenants)} tenant ledger(s), "
            f"{recovered.results} stored result(s)"
            + (
                f", dropped {recovered.torn_records} torn record(s)"
                if recovered.torn_records
                else ""
            )
        )
    if arguments.warm:
        print("warming sessions:", ", ".join(registry.datasets()))
        await service.warm_all()
    host, port = await service.start(arguments.host, arguments.port)
    print(
        f"privbasis service on http://{host}:{port} "
        f"({len(registry)} tenants: {', '.join(registry.tenant_ids())})"
    )
    print("endpoints: POST /v1/release, POST /v1/release_batch, "
          "POST /v1/ingest, GET /v1/snapshot, GET /v1/budget, "
          "GET /v1/results, GET /healthz, GET /metrics")
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await service.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and serve until interrupted."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        validate_data_plane(arguments.data_plane, arguments.memory_budget_mb)
    except ValidationError as error:
        # Exits 2, like every other usage error.
        parser.error(str(error))
    try:
        return asyncio.run(_run(arguments))
    except KeyboardInterrupt:
        print("\nshutting down")
        return 0


if __name__ == "__main__":
    sys.exit(main())
