#!/usr/bin/env python
"""Following a live transaction feed with incremental snapshots.

Scenario: a clickstream keeps appending baskets while analysts ask
for ε-DP top-k releases.  A :class:`repro.PrivBasisSession` takes each
batch through :meth:`~repro.PrivBasisSession.ingest` and advances
*incrementally* (packed bitmap rows extended, caches invalidated per
snapshot — never a cold rebuild); every release pins the snapshot
version it was computed on, so each published result is attributable
to one exact data state.

The same flow over HTTP: start ``python -m repro.service`` and use
``ServiceClient.ingest(...)`` / ``POST /v1/ingest`` — there the
dataset's ingest log numbers the versions and a state directory
replays them after a restart; see docs/streaming.md.

Run:  PYTHONPATH=src python examples/streaming_ingest.py [--smoke]
(``--smoke`` shrinks the workload for CI.)
"""

import sys
import time

import numpy as np

from repro import PrivBasisSession, TransactionDatabase, load_dataset


def next_batch(rng, template, size):
    """Fake one feed batch by resampling transactions template-like."""
    indices = rng.integers(0, template.num_transactions, size=size)
    return [list(template.transaction(int(index))) for index in indices]


def main() -> None:
    smoke = "--smoke" in sys.argv[1:]
    template = load_dataset("mushroom")
    rng = np.random.default_rng(20120827)

    # Day zero: the session starts on an initial bulk load.
    initial = TransactionDatabase(
        next_batch(rng, template, 1_000 if smoke else 4_000),
        num_items=template.num_items,
        item_labels=template.item_labels,
    )
    session = PrivBasisSession(initial, rng=7)
    print(
        f"session at v{session.snapshot_version}: "
        f"N={initial.num_transactions} over |I|={initial.num_items}"
    )

    # The feed delivers batches; after each, one warm release.
    for _ in range(2 if smoke else 4):
        batch = next_batch(rng, template, 250 if smoke else 1_000)
        started = time.perf_counter()
        session.ingest(batch)  # incremental: O(batch), not O(N)
        ingest_ms = (time.perf_counter() - started) * 1e3
        result = session.release(k=10, epsilon=1.0)
        top = result.itemsets[0]
        label = "{" + ", ".join(map(str, top.itemset)) + "}"
        print(
            f"  v{result.snapshot_version}: N={len(session.database)} "
            f"(ingest {ingest_ms:5.1f} ms)  top {label} "
            f"noisy f = {top.noisy_frequency:.3f}"
        )

    print(f"\nsession after the feed: {session!r}")
    # Versions are nested prefixes: every earlier data state is a
    # prefix of the current one, so audits can rerun exact counts
    # against the data state any release saw.
    pinned = session.database.slice(0, initial.num_transactions)
    print(
        f"historical snapshot v0 still has N={pinned.num_transactions}"
    )


if __name__ == "__main__":
    main()
