"""Streaming benchmark: incremental append vs cold rebuild.

A live feed delivers transaction batches; after each batch the serving
state (database indexes, item supports, packed bitmap pools) must be
brought current before the next release.  Two strategies compete:

* **incremental** — ``CountingBackend.extend(delta)``: the CSR
  inverted index is merged, packed bitmap rows grow in place, tail
  shards absorb new rows, item supports are advanced by addition —
  O(Δ) work per batch;
* **cold rebuild** — what the code did before streaming existed:
  construct a fresh ``TransactionDatabase`` + backend over the full
  concatenation and rebuild every structure — O(N) work per batch.

Both strategies must produce *identical* supports (asserted against
the :class:`NaiveBackend` oracle on the final state); the benchmark
reports per-batch refresh latency and the end-to-end speedup.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_streaming.py
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke   # CI

``--smoke`` shrinks the workload so CI exercises the full
append/rebuild/equivalence path on every push in a few seconds.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.datasets.synthetic import QuestConfig, generate_quest
from repro.datasets.transactions import TransactionDatabase
from repro.engine import BitmapBackend, NaiveBackend, ShardedBackend
from repro.engine.mmap import MmapShardStore

#: Item pool whose packed bitmaps every refresh keeps warm (the
#: frequent-pairs step of PrivBasis works over a pool of this size).
POOL_SIZE = 24

CONFIG = QuestConfig(
    num_transactions=60_000,
    num_items=150,
    avg_transaction_length=10.0,
    avg_pattern_length=4.0,
    num_patterns=40,
)
BATCHES, BATCH_SIZE = 8, 4_000

SMOKE_CONFIG = QuestConfig(
    num_transactions=2_000,
    num_items=60,
    avg_transaction_length=8.0,
    avg_pattern_length=4.0,
    num_patterns=20,
)
SMOKE_BATCHES, SMOKE_BATCH_SIZE = 3, 250


def make_feed(smoke: bool):
    """A base database plus a sequence of append batches."""
    config = SMOKE_CONFIG if smoke else CONFIG
    batches = SMOKE_BATCHES if smoke else BATCHES
    batch_size = SMOKE_BATCH_SIZE if smoke else BATCH_SIZE
    total = generate_quest(
        QuestConfig(
            num_transactions=config.num_transactions
            + batches * batch_size,
            num_items=config.num_items,
            avg_transaction_length=config.avg_transaction_length,
            avg_pattern_length=config.avg_pattern_length,
            num_patterns=config.num_patterns,
        ),
        rng=7,
    )
    rows = [total.transaction_array(i) for i in range(len(total))]
    base = TransactionDatabase.from_sorted_rows(
        rows[: config.num_transactions], total.num_items
    )
    deltas = [
        TransactionDatabase.from_sorted_rows(
            rows[
                config.num_transactions + index * batch_size:
                config.num_transactions + (index + 1) * batch_size
            ],
            total.num_items,
        )
        for index in range(batches)
    ]
    return base, deltas


def warm(backend, pool) -> None:
    """Build the serving state a warm backend keeps across batches."""
    backend.item_supports()
    if isinstance(backend, BitmapBackend):
        backend.bitmaps(pool)
    else:
        backend.pairwise_supports(pool)


def refresh_queries(backend, pool) -> int:
    """The post-append queries every strategy must answer."""
    supports = backend.item_supports()
    pairs = backend.pairwise_supports(pool)
    return int(supports.sum()) + sum(pairs.values())


def run_incremental(
    backend_factory, base, deltas, pool
) -> Dict[str, object]:
    """Append each batch via ``extend`` on one warm backend."""
    backend = backend_factory(base)
    warm(backend, pool)
    per_batch: List[float] = []
    checksum = 0
    for delta in deltas:
        started = time.perf_counter()
        backend.extend(delta)
        checksum = refresh_queries(backend, pool)
        per_batch.append(time.perf_counter() - started)
    return {
        "backend": backend,
        "per_batch_s": per_batch,
        "checksum": checksum,
    }


def run_cold(backend_factory, base, deltas, pool) -> Dict[str, object]:
    """Rebuild the full backend from scratch after each batch."""
    rows = [base.transaction_array(i) for i in range(len(base))]
    per_batch: List[float] = []
    checksum = 0
    backend = None
    for delta in deltas:
        rows.extend(
            delta.transaction_array(i) for i in range(len(delta))
        )
        started = time.perf_counter()
        database = TransactionDatabase.from_sorted_rows(
            list(rows), base.num_items
        )
        backend = backend_factory(database)
        warm(backend, pool)
        checksum = refresh_queries(backend, pool)
        per_batch.append(time.perf_counter() - started)
    return {
        "backend": backend,
        "per_batch_s": per_batch,
        "checksum": checksum,
    }


def check_equivalence(incremental, cold, pool) -> None:
    """Pin incremental == cold rebuild == naive oracle supports."""
    final = incremental["backend"]
    oracle = NaiveBackend(final.database)
    np.testing.assert_array_equal(
        final.item_supports(), oracle.item_supports()
    )
    expected = oracle.pairwise_supports(pool)
    assert final.pairwise_supports(pool) == expected
    assert cold["backend"].pairwise_supports(pool) == expected
    assert incremental["checksum"] == cold["checksum"]


def spilling_factory(
    root: Path, shard_size: int
) -> Callable[[TransactionDatabase], ShardedBackend]:
    """``database -> ShardedBackend``, each call spilling into a fresh
    store under ``root`` (the cold rebuild pays the spill every batch,
    as a service rebuilding a sharded dataset would)."""
    stores = itertools.count()

    def factory(database: TransactionDatabase) -> ShardedBackend:
        store = MmapShardStore.create(
            root / f"store-{next(stores)}",
            database.num_items,
            rows_per_segment=shard_size,
        )
        store.append(database)
        store.flush()
        return ShardedBackend(store)

    return factory


def main(argv: List[str] | None = None) -> int:
    """Run the comparison and print per-backend speedups."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small feed only (CI equivalence + path check)",
    )
    arguments = parser.parse_args(argv)
    base, deltas = make_feed(arguments.smoke)
    pool = list(range(POOL_SIZE))
    batch_size = len(deltas[0])
    print(
        f"== streaming feed: base N={len(base)}, "
        f"{len(deltas)} batches of {batch_size} =="
    )

    worst_speedup = float("inf")
    with tempfile.TemporaryDirectory(prefix="bench-streaming-") as root:
        factories = {
            "bitmap": lambda db: BitmapBackend(db),
            "sharded": spilling_factory(Path(root), shard_size=16_384),
        }
        for name, factory in factories.items():
            incremental = run_incremental(factory, base, deltas, pool)
            cold = run_cold(factory, base, deltas, pool)
            check_equivalence(incremental, cold, pool)
            for run in (incremental, cold):
                run["backend"].close()
            inc_median = statistics.median(incremental["per_batch_s"])
            cold_median = statistics.median(cold["per_batch_s"])
            speedup = cold_median / inc_median
            worst_speedup = min(worst_speedup, speedup)
            print(
                f"{name:<8} incremental append: "
                f"{inc_median * 1e3:8.2f} ms/batch   cold rebuild: "
                f"{cold_median * 1e3:8.2f} ms/batch"
                f"   speedup: {speedup:6.1f}x"
            )
    if not arguments.smoke:
        assert worst_speedup > 1.0, (
            f"incremental append lost to cold rebuild "
            f"({worst_speedup:.2f}x)"
        )
    print(
        "equivalence ok: incremental == cold rebuild == naive oracle"
        + ("  (smoke)" if arguments.smoke else "")
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
