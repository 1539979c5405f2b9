"""Build a workload's dataset once and record its exact top-k.

Usage (``run.py`` calls it when the cached file is missing)::

    python3 perfbench/prepare.py DATASET_JSON K[,K...] OUT.json

Generates the dataset exactly as the server will (which also writes a
disk tier's file under ``REPRO_TIER_DIR``), mines the exact top-k for
every ``k`` the workload sends, and writes ``{"num_transactions",
"num_items", "truth": {k: [itemset, ...]}}``.  Runs in its own process
so the benchmark driver never holds a large dataset in memory.
"""

from __future__ import annotations

import json
import sys

from launcher import make_loader


def main(argv) -> int:
    dataset = json.loads(argv[1])
    ks = [int(k) for k in argv[2].split(",")]
    from repro.fim.topk import top_k_itemsets

    database = make_loader(dataset)(dataset["name"])
    summary = {
        "num_transactions": database.num_transactions,
        "num_items": database.num_items,
        "truth": {
            str(k): [list(itemset)
                     for itemset, _ in top_k_itemsets(database, k)]
            for k in ks
        },
    }
    with open(argv[3], "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
