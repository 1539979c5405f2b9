"""Out-of-core data plane benchmark: peak RSS + wall per tier.

Sweeps the disk-backed synthetic tiers
(:data:`repro.datasets.registry.TIERS`) through both data planes —
``memory`` (chunked load materialized into a RAM-resident
:class:`~repro.engine.bitmap.BitmapBackend`) and ``mmap`` (chunked
load spilled straight into :class:`~repro.engine.mmap.MmapShardStore`
segments and served by ``ShardedBackend(store)``) — running one
release's worth of counting primitives on each.  Every tier × plane
runs in its **own subprocess** so ``ru_maxrss`` (a process-lifetime
high-water mark) isolates that configuration's true peak, and both
planes must produce **bit-identical** counting answers (compared by
digest across the process boundary; asserted).

The mmap plane's point is bounded residency: the large tier must
finish under its configured peak-RSS target while the memory plane is
free to use whatever it needs.  Results land in
``BENCH_outofcore.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_outofcore.py
    PYTHONPATH=src python benchmarks/bench_outofcore.py --smoke  # CI

``--smoke`` restricts the sweep to the tiny tier so CI exercises the
generate → spill → attach → count → compare path in seconds; it
writes no file unless ``--output`` names one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

#: Per-tier mmap-plane configuration: resident shard-cache budget and
#: the peak-RSS target the large tier is asserted against.  The RSS
#: target covers interpreter + numpy + one working set of mapped
#: pages; the memory plane routinely exceeds it on the large tier
#: (bitmap rows alone are ``num_items × N/8`` bytes).
TIER_PLANS: Dict[str, Dict[str, int]] = {
    "tier-tiny": {"budget_mb": 16, "rss_target_mb": 0},
    "tier-small": {"budget_mb": 32, "rss_target_mb": 0},
    "tier-large": {"budget_mb": 64, "rss_target_mb": 512},
}

#: Counting workload sizes (paper regimes: λ-pool pairwise sweep,
#: length-≤8 bases).
POOL_SIZE = 20
NUM_BASES, BASIS_LENGTH = 5, 6


def make_queries(num_items: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    pick = lambda size: sorted(  # noqa: E731 — tiny local helper
        int(item)
        for item in rng.choice(num_items, size=size, replace=False)
    )
    pool = pick(min(POOL_SIZE, num_items))
    bases = [
        pick(min(BASIS_LENGTH, num_items)) for _ in range(NUM_BASES)
    ]
    return pool, bases


def digest_answers(answers) -> str:
    """Stable digest of the counting answers (crosses processes)."""

    def normalize(value):
        if hasattr(value, "tolist"):
            return value.tolist()
        if isinstance(value, dict):
            return sorted(
                (list(key), int(item)) for key, item in value.items()
            )
        if isinstance(value, (list, tuple)):
            return [normalize(entry) for entry in value]
        return value

    payload = json.dumps(normalize(answers), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_workload(backend, num_items: int) -> Dict[str, object]:
    pool, bases = make_queries(num_items, seed=2012)
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    items = backend.item_supports()
    timings["item_supports_s"] = time.perf_counter() - started
    started = time.perf_counter()
    pairs = backend.pairwise_supports(pool)
    timings["pairwise_supports_s"] = time.perf_counter() - started
    started = time.perf_counter()
    bins = backend.bin_counts_batch(bases)
    timings["bin_counts_batch_s"] = time.perf_counter() - started
    digest = digest_answers([items, pairs, bins])
    return {"timings": timings, "digest": digest}


def child_main(arguments) -> int:
    """One tier × plane measurement (runs in its own process)."""
    from repro.datasets.chunked import iter_transaction_chunks
    from repro.datasets.registry import TIERS, ensure_tier_file

    spec = TIERS[arguments.tier]
    path = ensure_tier_file(arguments.tier)
    record: Dict[str, object] = {
        "tier": arguments.tier,
        "plane": arguments.plane,
        "num_transactions": spec.num_transactions,
        "num_items": spec.num_items,
    }

    with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as spill:
        started = time.perf_counter()
        chunks = iter_transaction_chunks(path, num_items=spec.num_items)
        if arguments.plane == "mmap":
            from repro.engine.mmap import MmapShardStore
            from repro.engine.sharded import ShardedBackend

            store = MmapShardStore.build(
                Path(spill) / "shards",
                chunks,
                num_items=spec.num_items,
                memory_budget_bytes=arguments.budget_mb * 1024 * 1024,
            )
            backend = ShardedBackend(store)
            record["spilled_bytes"] = store.spilled_bytes()
            record["budget_mb"] = arguments.budget_mb
        else:
            from repro.datasets.chunked import load_chunked
            from repro.engine.bitmap import BitmapBackend

            backend = BitmapBackend(
                load_chunked(path, num_items=spec.num_items)
            )
        record["build_s"] = round(time.perf_counter() - started, 6)

        outcome = run_workload(backend, spec.num_items)
        backend.close()
    record["digest"] = outcome["digest"]
    record.update(
        {
            kind: round(value, 6)
            for kind, value in outcome["timings"].items()
        }
    )
    record["query_s"] = round(sum(outcome["timings"].values()), 6)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # Linux reports ru_maxrss in KiB.
    record["peak_rss_bytes"] = int(usage.ru_maxrss) * 1024
    print(json.dumps(record))
    return 0


def run_child(
    tier: str, plane: str, budget_mb: int
) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH")
        else str(SRC_DIR)
    )
    completed = subprocess.run(
        [
            sys.executable, os.fspath(Path(__file__).resolve()),
            "--child", "--tier", tier, "--plane", plane,
            "--budget-mb", str(budget_mb),
        ],
        env=env, capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{tier}/{plane} child failed:\n{completed.stderr}"
        )
    return json.loads(completed.stdout.splitlines()[-1])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny tier only (CI spill/attach/equivalence check)",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="JSON output path (default: BENCH_outofcore.json; "
             "--smoke writes no file unless given one)",
    )
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tier", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--plane", default="mmap",
                        help=argparse.SUPPRESS)
    parser.add_argument("--budget-mb", type=int, default=64,
                        help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.child:
        return child_main(arguments)

    from repro.datasets.registry import ensure_tier_file, tier_names

    tiers = ["tier-tiny"] if arguments.smoke else list(tier_names())
    results: List[Dict[str, object]] = []
    failures: List[str] = []
    for tier in tiers:
        plan = TIER_PLANS[tier]
        ensure_tier_file(tier)  # generate once, outside the timings
        records = {
            plane: run_child(tier, plane, plan["budget_mb"])
            for plane in ("memory", "mmap")
        }
        if records["memory"]["digest"] != records["mmap"]["digest"]:
            failures.append(
                f"{tier}: memory and mmap planes answered differently"
            )
        target_mb = plan["rss_target_mb"]
        mmap_rss = records["mmap"]["peak_rss_bytes"]
        if target_mb and mmap_rss > target_mb * 1024 * 1024:
            failures.append(
                f"{tier}: mmap peak RSS {mmap_rss / 2**20:.0f} MiB "
                f"exceeds the {target_mb} MiB target"
            )
        for plane in ("memory", "mmap"):
            record = records[plane]
            record["rss_target_mb"] = target_mb if plane == "mmap" else None
            results.append(record)
            print(
                f"{tier:<11} {plane:<7} "
                f"build={record['build_s']:.3f}s "
                f"query={record['query_s']:.3f}s "
                f"peak_rss={record['peak_rss_bytes'] / 2**20:.0f}MiB"
            )

    # A smoke run must not overwrite the committed full-scale results.
    if arguments.output or not arguments.smoke:
        output = Path(
            arguments.output
            or Path(__file__).resolve().parent.parent
            / "BENCH_outofcore.json"
        )
        output.write_text(
            json.dumps(
                {
                    "benchmark": "outofcore",
                    "smoke": bool(arguments.smoke),
                    "results": results,
                },
                indent=2,
            )
            + "\n",
            encoding="utf-8",
        )
        print(f"wrote {output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("planes bit-identical on every tier; RSS targets met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
