"""Unit tests for the ``/metrics`` counters and histograms.

The end-to-end tests read these structures through the HTTP endpoint;
here each class is checked on its own: bucket edges, cumulative
counts, trace folding and snapshot isolation.
"""

import json

import pytest

from repro.pipeline.trace import ReleaseTrace, StageTrace
from repro.service.metrics import (
    DEFAULT_BUCKETS_MS,
    LatencyHistogram,
    ReuseMetrics,
    ServiceMetrics,
    StageMetrics,
)


def bucket_counts(snapshot):
    return [bucket["count"] for bucket in snapshot["buckets"]]


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_ms"] == 0.0
        assert snapshot["max_ms"] == 0.0
        assert bucket_counts(snapshot) == [0] * (len(DEFAULT_BUCKETS_MS) + 1)
        assert snapshot["buckets"][-1]["le_ms"] is None

    @pytest.mark.parametrize(
        "latency, first_bucket",
        [(0.0, 1), (1.0, 1), (1.5, 2), (5.0, 5), (5.001, 10), (5000.0, 5000)],
    )
    def test_bounds_are_inclusive(self, latency, first_bucket):
        histogram = LatencyHistogram()
        histogram.observe(latency)
        for bucket in histogram.snapshot()["buckets"][:-1]:
            expected = 1 if bucket["le_ms"] >= first_bucket else 0
            assert bucket["count"] == expected, bucket

    def test_overflow_lands_only_in_the_open_bucket(self):
        histogram = LatencyHistogram()
        histogram.observe(12_000.0)
        snapshot = histogram.snapshot()
        assert bucket_counts(snapshot)[:-1] == [0] * len(DEFAULT_BUCKETS_MS)
        assert snapshot["buckets"][-1] == {"le_ms": None, "count": 1}
        assert snapshot["max_ms"] == 12_000.0

    def test_counts_are_cumulative_with_mean_and_max(self):
        histogram = LatencyHistogram()
        for latency in (0.5, 3, 3, 40, 700, 9000):
            histogram.observe(latency)
        snapshot = histogram.snapshot()
        counts = bucket_counts(snapshot)
        assert counts == sorted(counts)
        assert counts[-1] == snapshot["count"] == 6
        assert snapshot["mean_ms"] == pytest.approx(
            (0.5 + 3 + 3 + 40 + 700 + 9000) / 6
        )
        assert snapshot["max_ms"] == 9000.0

    def test_custom_bounds_are_sorted(self):
        histogram = LatencyHistogram(buckets_ms=(10, 1, 5))
        histogram.observe(3)
        snapshot = histogram.snapshot()
        assert [b["le_ms"] for b in snapshot["buckets"]] == [1, 5, 10, None]
        assert bucket_counts(snapshot) == [0, 1, 1, 1]

    def test_snapshot_is_strict_json(self):
        histogram = LatencyHistogram()
        histogram.observe(1e9)
        json.dumps(histogram.snapshot(), allow_nan=False)


def make_trace(branch, planner, stages):
    return ReleaseTrace(
        planner=planner,
        epsilon=1.0,
        k=10,
        eta=1.1,
        noise="laplace",
        branch=branch,
        stages=[
            StageTrace(
                name=name,
                epsilon=epsilon,
                touches_data=True,
                wall_time_s=wall_s,
                queries=queries,
            )
            for name, epsilon, wall_s, queries in stages
        ],
    )


class TestStageMetrics:
    def test_empty(self):
        assert StageMetrics().snapshot() == {
            "releases": 0,
            "branches": {},
            "planners": {},
            "stages": {},
        }

    def test_none_trace_is_ignored(self):
        metrics = StageMetrics()
        metrics.record(None)
        assert metrics.snapshot()["releases"] == 0

    def test_traces_fold_into_per_stage_totals(self):
        metrics = StageMetrics()
        metrics.record(make_trace("pairs", "paper", [
            ("select_items", 0.1, 0.002, {"item_supports": 1}),
            ("select_pairs", 0.2, 0.010, {"pairwise_supports": 1}),
        ]))
        metrics.record(make_trace("single_basis", "custom", [
            ("select_items", 0.3, 0.0005, {"item_supports": 1, "top_k": 2}),
        ]))
        snapshot = metrics.snapshot()
        assert snapshot["releases"] == 2
        assert snapshot["branches"] == {"pairs": 1, "single_basis": 1}
        assert snapshot["planners"] == {"paper": 1, "custom": 1}
        items = snapshot["stages"]["select_items"]
        assert items["runs"] == 2
        assert items["epsilon_total"] == pytest.approx(0.4)
        assert items["wall_time_ms_total"] == 2.5
        assert items["queries"] == {"item_supports": 2, "top_k": 2}
        assert snapshot["stages"]["select_pairs"] == {
            "runs": 1,
            "epsilon_total": 0.2,
            "wall_time_ms_total": 10.0,
            "queries": {"pairwise_supports": 1},
        }

    def test_stages_are_sorted_and_wall_time_rounded(self):
        metrics = StageMetrics()
        metrics.record(make_trace("pairs", "paper", [
            ("zeta", 0.0, 0.0012345678, {}),
            ("alpha", 0.0, 0.0, {}),
        ]))
        stages = metrics.snapshot()["stages"]
        assert list(stages) == ["alpha", "zeta"]
        assert stages["zeta"]["wall_time_ms_total"] == 1.235

    def test_snapshot_does_not_alias_the_counters(self):
        metrics = StageMetrics()
        metrics.record(make_trace("pairs", "paper", [
            ("select_items", 0.1, 0.001, {"item_supports": 1}),
        ]))
        snapshot = metrics.snapshot()
        snapshot["branches"]["pairs"] = 99
        snapshot["stages"]["select_items"]["queries"]["item_supports"] = 99
        fresh = metrics.snapshot()
        assert fresh["branches"] == {"pairs": 1}
        assert fresh["stages"]["select_items"]["queries"] == {
            "item_supports": 1
        }


class TestReuseMetrics:
    def test_hits_and_misses(self):
        metrics = ReuseMetrics()
        metrics.miss()
        metrics.hit(0.5)
        metrics.hit(0.25)
        assert (metrics.hits, metrics.misses) == (2, 1)
        assert metrics.snapshot() == {
            "enabled": True,
            "hits": 2,
            "misses": 1,
            "epsilon_saved": 0.75,
        }

    def test_disabled_flag_is_reported(self):
        snapshot = ReuseMetrics(enabled=0).snapshot()
        assert snapshot["enabled"] is False
        assert snapshot["hits"] == snapshot["misses"] == 0
        assert snapshot["epsilon_saved"] == 0.0


class TestServiceMetrics:
    def test_counts_per_route_and_status(self):
        metrics = ServiceMetrics()
        metrics.record("/v1/release", 200, 120.0)
        metrics.record("/v1/release", 200, 8.0)
        metrics.record("/v1/release", 429, 0.5)
        metrics.record("/healthz", 200, 0.2)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == {"/v1/release": 3, "/healthz": 1}
        assert snapshot["statuses"] == {
            "/v1/release:200": 2,
            "/v1/release:429": 1,
            "/healthz:200": 1,
        }
        release = snapshot["latency_ms"]["/v1/release"]
        assert release["count"] == 3
        assert release["max_ms"] == 120.0
        assert snapshot["latency_ms"]["/healthz"]["count"] == 1

    def test_empty_and_isolated_snapshots(self):
        metrics = ServiceMetrics()
        assert metrics.snapshot() == {
            "requests": {}, "statuses": {}, "latency_ms": {},
        }
        metrics.record("/v1/plan", 400, 1.0)
        snapshot = metrics.snapshot()
        snapshot["requests"]["/v1/plan"] = 7
        assert metrics.snapshot()["requests"] == {"/v1/plan": 1}
        assert snapshot["latency_ms"]["/v1/plan"]["mean_ms"] == 1.0
