"""Store benchmark: journaled vs in-memory release overhead.

Durability must not tax the hot path into uselessness: the service
journals an ε debit before every release and stores the released
payload after it, with one fsync barrier immediately before the
answer leaves the process.  This benchmark measures what that
discipline costs per release against the pure in-memory path, across
the two WAL fsync policies:

* ``memory``  — plain ``session.release`` (the pre-durability code);
* ``batch``   — the production setting: debit + result buffered, one
  barrier fsync per release (overlapping releases would share it);
* ``always``  — every WAL append fsyncs individually (the naive
  write-ahead implementation this repo deliberately avoids).

After the timed runs the benchmark "restarts": it reopens the state
directory and asserts the recovered journal matches the in-memory
ledger exactly — the benchmark doubles as an equivalence check.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_store.py
    PYTHONPATH=src python benchmarks/bench_store.py --smoke   # CI

``--smoke`` shrinks the workload so CI exercises the journaled path
and the recovery equivalence on every push in a few seconds.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro.datasets.synthetic import QuestConfig, generate_quest
from repro.engine.session import PrivBasisSession
from repro.store.state import StateStore

CONFIG = QuestConfig(
    num_transactions=20_000,
    num_items=120,
    avg_transaction_length=10.0,
    avg_pattern_length=4.0,
    num_patterns=30,
)
RELEASES, K, EPSILON = 40, 25, 0.5

SMOKE_CONFIG = QuestConfig(
    num_transactions=1_500,
    num_items=50,
    avg_transaction_length=8.0,
    avg_pattern_length=4.0,
    num_patterns=15,
)
SMOKE_RELEASES = 6

#: Full-run bound on the batch-fsync overhead vs in-memory.  The
#: ISSUE target is ~10%; the assertion leaves headroom for noisy CI
#: disks while still catching a regression to per-append fsyncs.
MAX_BATCH_OVERHEAD = 0.25


def timed_releases(session, store, tenant: str, releases: int) -> List[float]:
    """Per-release wall times following the service's discipline."""
    from repro.service.protocol import result_to_wire

    timings: List[float] = []
    rng = np.random.default_rng(7)
    for index in range(releases):
        started = time.perf_counter()
        if store is not None:
            store.ledger.debit(tenant, EPSILON, f"release[{index}]")
        result = session.release(k=K, epsilon=EPSILON, rng=rng)
        if store is not None:
            store.results.record(
                tenant, "bench", result.snapshot_version,
                result_to_wire(result),
            )
            store.barrier()
        timings.append(time.perf_counter() - started)
    return timings


def run_variant(
    database, fsync: str | None, releases: int
) -> Dict[str, object]:
    """One timed run; ``fsync=None`` is the pure in-memory variant."""
    session = PrivBasisSession(database)
    session.warm_up()
    session.release(k=K, epsilon=EPSILON, rng=3)  # pay cold costs once
    state_dir = None
    store = None
    if fsync is not None:
        state_dir = tempfile.mkdtemp(prefix=f"bench_store_{fsync}_")
        store = StateStore(state_dir, fsync=fsync)
    timings = timed_releases(session, store, "bench-tenant", releases)
    summary: Dict[str, object] = {
        "median_ms": statistics.median(timings) * 1e3,
        "fsyncs": 0,
    }
    if store is not None:
        summary["fsyncs"] = store.ledger.stats()["fsyncs"]
        expected = releases * EPSILON  # the warm-up was never journaled
        store.close()
        # The "restart": recover the directory and check equivalence.
        with StateStore(state_dir) as recovered:
            journaled = recovered.ledger.spent("bench-tenant")
            assert abs(journaled - expected) < 1e-9, (
                f"recovered journal {journaled} != ledger {expected}"
            )
            assert len(recovered.results) == releases
        shutil.rmtree(state_dir, ignore_errors=True)
    return summary


def main(argv: List[str] | None = None) -> int:
    """Run the comparison and print per-policy overheads."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small workload only (CI journaled-path + recovery check)",
    )
    arguments = parser.parse_args(argv)
    config = SMOKE_CONFIG if arguments.smoke else CONFIG
    releases = SMOKE_RELEASES if arguments.smoke else RELEASES
    database = generate_quest(config, rng=7)
    print(
        f"== store overhead: N={database.num_transactions}, "
        f"{releases} releases of k={K}, epsilon={EPSILON} =="
    )

    baseline = run_variant(database, None, releases)
    base_ms = baseline["median_ms"]
    print(f"{'memory':<8} {base_ms:8.2f} ms/release   (baseline)")

    overheads: Dict[str, float] = {}
    for fsync in ("batch", "always"):
        run = run_variant(database, fsync, releases)
        overhead = run["median_ms"] / base_ms - 1.0
        overheads[fsync] = overhead
        print(
            f"{fsync:<8} {run['median_ms']:8.2f} ms/release   "
            f"overhead: {overhead:+7.1%}   fsyncs: {run['fsyncs']}"
        )

    if not arguments.smoke:
        assert overheads["batch"] < MAX_BATCH_OVERHEAD, (
            f"batched journaling costs {overheads['batch']:.1%} "
            f">= {MAX_BATCH_OVERHEAD:.0%} over in-memory"
        )
    print(
        "recovery equivalence ok: journaled spent == session ledger "
        "for every policy" + ("  (smoke)" if arguments.smoke else "")
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
