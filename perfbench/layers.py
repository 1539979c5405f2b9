"""Per-layer metrics: span totals by phase, and what they become.

:func:`aggregate` runs in the server process at the end of a traced
run.  It turns the recorded spans into totals per phase (``setup``
before the ``mark``, ``window`` after it) and per span name:
``[calls, self seconds, inclusive seconds]``.  It also keeps every
window request's handler duration and the self time of every span in
that handler's tree, which the attribution check compares.

:func:`layer_metrics` turns those totals, the client's records and two
``/metrics`` snapshots into the per-layer metrics named in
:data:`PER_LAYER`.  "Per release" means per fresh release the server
ran in the window (its ``session.release`` calls).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from spans import Span, children_of, self_times, subtree


#: The engine primitives timed on ``CachedBackend``.
PRIMITIVES = ("item_supports", "pairwise_supports", "bin_counts",
              "conjunction_supports", "extension_supports", "top_k")
STAGES = ("get_lambda", "select_items", "select_pairs", "construct_basis",
          "basis_freq")
CACHE_KINDS = ("bin_counts", "pairwise_supports", "top_k")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("service.parse_ms", "ms"),
    ("service.handler_ms", "ms"),
    ("service.lock_wait_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.http_overhead_ms", "ms"),
    ("service.rejected_429", "count"),
    ("service.session_build_s", "s"),
    ("session.release_ms", "ms"),
    ("session.ingest_ms", "ms"),
    *((f"pipeline.{stage}_ms", "ms") for stage in STAGES),
    ("pipeline.pairs_branch_ratio", "ratio"),
    ("pipeline.lambda_mean", "items"),
    ("core.average_case_ev_calls", "count"),
    ("core.average_case_ev_ms", "ms"),
    ("core.basis_count_mean", "count"),
    ("core.candidate_bins_mean", "count"),
    ("core.noisy_bin_counts_ms", "ms"),
    ("core.estimates_ms", "ms"),
    *(metric for primitive in PRIMITIVES for metric in (
        (f"engine.{primitive}_calls", "count"),
        (f"engine.{primitive}_ms", "ms"))),
    *((f"engine.cache_hit_ratio.{kind}", "ratio") for kind in CACHE_KINDS),
    ("engine.extend_ms", "ms"),
    ("mmap.shard_reads", "count"),
    ("mmap.shard_attaches", "count"),
    ("mmap.shard_hit_ratio", "ratio"),
    ("mmap.attach_ms", "ms"),
    ("mmap.spill_s", "s"),
    ("store.debit_ms", "ms"),
    ("store.results_record_ms", "ms"),
    ("store.barrier_ms", "ms"),
    ("store.barrier_calls", "count"),
    ("store.wal_syncs_per_release", "count"),
    ("store.wal_bytes_per_release", "B"),
    ("store.log_append_ms", "ms"),
    ("reuse.lookup_ms", "ms"),
    ("reuse.truncate_ms", "ms"),
    ("reuse.hit_ratio", "ratio"),
    ("datasets.load_s", "s"),
    ("datasets.extended_ms", "ms"),
    ("datasets.rss_after_load_mb", "MiB"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]

#: Spans whose self time no per-layer metric reports: the executor
#: closure around the session call (the ingest path's journaling glue).
UNREPORTED_SPANS = ("service.locked_call",)

#: Allowed gap between a handler's duration and the self times of the
#: spans in its tree, as a share of the handler time (plus 0.1 ms).
ATTRIBUTION_TOLERANCE = 0.01


def fresh_releases(records: List[dict], k: int,
                   epsilon: float) -> List[dict]:
    """Window releases the service ran fresh at the workload's ``k``, ``ε``.

    A dominated request that misses the reuse plane (after an ingest,
    or when it repeats a stored request exactly) also runs fresh, but
    at its own smaller ``k``; the release metrics leave it out.
    """
    return [record for record in records
            if record["phase"] == "window" and record["op"] == "release"
            and record["status"] == 200 and not record["hit"]
            and record["k"] == k and record["epsilon"] == epsilon]


def aggregate(spans: Sequence[Span], counters: Dict[str, int],
              mark: Tuple[float, Dict[str, int]]) -> dict:
    """Span and counter totals per phase, plus the handler trees.

    ``mark`` is ``(time, counters at that time)``: the window's start.
    """
    mark_time, counters_at_mark = mark

    def phase(start: float) -> str:
        return "window" if start >= mark_time else "setup"

    own = self_times(list(spans))
    children = children_of(spans)
    totals: Dict[str, Dict[str, list]] = {"setup": {}, "window": {}}
    handlers: Dict[str, float] = {}
    attributed: Dict[str, float] = {}
    for span in spans:
        row = totals[phase(span.start)].setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += own[span.span_id]
        row[2] += span.duration
        if span.name == "service.dispatch" and phase(span.start) == "window":
            handlers[span.request or str(span.span_id)] = span.duration
            for node in subtree(span, children):
                attributed[node.name] = (attributed.get(node.name, 0.0)
                                         + own[node.span_id])
    window_counts = {name: value - counters_at_mark.get(name, 0)
                     for name, value in counters.items()}
    return {"spans": totals, "counters": window_counts,
            "handlers": handlers, "attributed": attributed}


def attribution(trace: dict) -> Tuple[float, float, int]:
    """``(handler seconds, self seconds in handler trees, requests)``."""
    handlers = trace["handlers"]
    return (sum(handlers.values()), sum(trace["attributed"].values()),
            len(handlers))


def attribution_holds(trace: dict) -> bool:
    """Whether the self times in each handler tree add up to it."""
    handler_s, self_s, _ = attribution(trace)
    return abs(handler_s - self_s) <= (
        ATTRIBUTION_TOLERANCE * handler_s + 1e-4)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _cache_ratio(before: dict, after: dict, dataset: str,
                 kind: str) -> float:
    def counts(snapshot):
        entry = (snapshot.get("datasets", {}).get(dataset, {})
                 .get("cache", {}).get(kind, {}))
        return entry.get("hits", 0), entry.get("misses", 0)

    hits0, misses0 = counts(before)
    hits1, misses1 = counts(after)
    return _ratio(hits1 - hits0, (hits1 - hits0) + (misses1 - misses0))


def layer_metrics(trace: dict, records: List[dict], fresh: List[dict],
                  before: dict, after: dict, dataset: str,
                  rss_after_load_kib: Optional[int]) -> Dict[str, float]:
    """Every metric of :data:`PER_LAYER` except ``trace.overhead_ratio``.

    ``fresh`` are the window's :func:`fresh_releases`.
    """
    window = trace["spans"]["window"]
    setup = trace["spans"]["setup"]
    counters = trace["counters"]

    def calls(name, phase=window):
        return phase.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name, phase=window):
        return phase.get(name, [0, 0.0, 0.0])[1] * 1e3

    def incl_ms(name, phase=window):
        return phase.get(name, [0, 0.0, 0.0])[2] * 1e3

    def mean_ms(name, phase=window):
        return _ratio(incl_ms(name, phase), calls(name, phase))

    releases = calls("session.release")
    requests = len(trace["handlers"])
    overheads = [
        (record["done"] - record["sent"]
         - trace["handlers"][record["id"]]) * 1e3
        for record in fresh if record["id"] in trace["handlers"]
    ]
    traced = [record for record in fresh if "lam" in record]
    handler_s, _, _ = attribution(trace)
    reported_s = sum(seconds for name, seconds in trace["attributed"].items()
                     if name not in UNREPORTED_SPANS)
    reads = calls("mmap.shard_database")
    metrics = {
        "service.parse_ms": _ratio(
            self_ms("service.read_request")
            + self_ms("service.parse_release_request"), requests),
        "service.handler_ms": _ratio(self_ms("service.dispatch"), requests),
        "service.lock_wait_ms": _ratio(self_ms("service.run_locked"),
                                       calls("service.run_locked")),
        "service.encode_ms": _ratio(
            self_ms("service.result_to_wire")
            + self_ms("service.write_response"), requests),
        "service.http_overhead_ms": (statistics.median(overheads)
                                     if overheads else 0.0),
        "service.rejected_429": float(sum(
            record["status"] == 429 for record in records
            if record["phase"] == "window")),
        "service.session_build_s": mean_ms("service.session_build",
                                           setup) / 1e3,
        "session.release_ms": mean_ms("session.release"),
        "session.ingest_ms": mean_ms("session.ingest"),
        **{f"pipeline.{stage}_ms": mean_ms(f"pipeline.{stage}")
           for stage in STAGES},
        "pipeline.pairs_branch_ratio": _ratio(
            sum(record.get("branch") == "pairs" for record in traced),
            len(traced)),
        "pipeline.lambda_mean": _ratio(
            sum(record.get("lam") or 0 for record in traced), len(traced)),
        "core.average_case_ev_calls": _ratio(
            calls("core.average_case_ev"), releases),
        "core.average_case_ev_ms": _ratio(
            self_ms("core.average_case_ev"), releases),
        "core.basis_count_mean": _ratio(
            counters.get("core.bases", 0), calls("pipeline.construct_basis")),
        "core.candidate_bins_mean": _ratio(
            counters.get("core.candidate_bins", 0),
            calls("pipeline.construct_basis")),
        "core.noisy_bin_counts_ms": mean_ms("core.noisy_bin_counts"),
        "core.estimates_ms": _ratio(incl_ms("core.estimates"), releases),
        **{metric: value for primitive in PRIMITIVES for metric, value in (
            (f"engine.{primitive}_calls",
             _ratio(calls(f"engine.{primitive}"), releases)),
            (f"engine.{primitive}_ms",
             _ratio(self_ms(f"engine.{primitive}"), releases)))},
        **{f"engine.cache_hit_ratio.{kind}":
           _cache_ratio(before, after, dataset, kind)
           for kind in CACHE_KINDS},
        "engine.extend_ms": mean_ms("engine.extend"),
        "mmap.shard_reads": _ratio(reads, releases),
        "mmap.shard_attaches": _ratio(calls("mmap.attach"), releases),
        "mmap.shard_hit_ratio": (1.0 - _ratio(calls("mmap.attach"), reads)
                                 if reads else 0.0),
        "mmap.attach_ms": _ratio(incl_ms("mmap.attach"), releases),
        "mmap.spill_s": mean_ms("mmap.spill", setup) / 1e3,
        "store.debit_ms": _ratio(self_ms("store.debit"), releases),
        "store.results_record_ms": _ratio(incl_ms("store.results_record"),
                                          releases),
        "store.barrier_ms": mean_ms("store.barrier"),
        "store.barrier_calls": _ratio(calls("store.barrier"), releases),
        "store.wal_syncs_per_release": _ratio(calls("store.wal_sync"),
                                              releases),
        "store.wal_bytes_per_release": _ratio(
            counters.get("store.wal_bytes", 0), releases),
        "store.log_append_ms": _ratio(self_ms("store.log_append"),
                                      calls("store.log_append")),
        "reuse.lookup_ms": mean_ms("reuse.lookup"),
        "reuse.truncate_ms": mean_ms("reuse.truncate"),
        "reuse.hit_ratio": _ratio(
            after["reuse"]["hits"] - before["reuse"]["hits"],
            (after["reuse"]["hits"] - before["reuse"]["hits"])
            + (after["reuse"]["misses"] - before["reuse"]["misses"])),
        "datasets.load_s": mean_ms("datasets.load", setup) / 1e3,
        "datasets.extended_ms": mean_ms("datasets.extended"),
        "datasets.rss_after_load_mb": (rss_after_load_kib or 0) / 1024.0,
        "trace.unattributed_ms": _ratio((handler_s - reported_s) * 1e3,
                                        requests),
    }
    return metrics
