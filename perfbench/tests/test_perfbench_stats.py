"""The percentile rule and metric-name validity."""

import json
from pathlib import Path

import pytest

import layers
import run
import stats
import workloads


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supported(100, 90.0)        # ranks 91..100 lie beyond
    assert not stats.supported(99, 90.0)     # only 9 beyond
    assert stats.supported(1000, 99.0)
    assert not stats.supported(999, 99.0)
    assert not stats.supported(0, 50.0)


def test_tail_reports_the_highest_supported_percentile_up_to_its_cap():
    values = [float(v) for v in range(1, 1001)]
    assert stats.tail(values, 99.0) == (99.0, 990.0)
    assert stats.tail(values, 90.0) == (90.0, 900.0)
    assert stats.tail(values[:200], 99.0) == (95.0, 190.0)


def test_tail_degrades_smoothly_just_below_full_support():
    values = [float(v) for v in range(1, 96)]     # 95 samples
    used, value = stats.tail(values, 90.0)
    assert 89.0 < used < 90.0
    assert sum(v > value for v in values) == stats.MIN_BEYOND


def test_tail_falls_back_to_the_median_when_no_percentile_is_supported():
    assert stats.tail([5.0, 1.0, 3.0], 99.0) == (50.0, 3.0)
    with pytest.raises(ValueError):
        stats.tail([], 90.0)


def test_summary_states_the_sample_count_and_only_supported_tails():
    summary = stats.summarize([float(v) for v in range(150)])
    assert summary["n"] == 150
    assert "p90" in summary and "p99" not in summary


@pytest.mark.parametrize("name", ["release_p50_ms", "engine.top_k_ms",
                                  "engine.cache_hit_ratio.top_k", "a-1"])
def test_valid_metric_names(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", "has space", "a/b",
                                  "x" * 65, "ünïcode"])
def test_invalid_metric_names(name):
    assert not stats.valid_metric_name(name)


def test_every_emitted_metric_name_is_valid_and_unique():
    names = ([name for name, _ in run.END_TO_END]
             + [name for name, _ in layers.PER_LAYER])
    assert len(names) == len(set(names))
    assert all(stats.valid_metric_name(name) for name in names)


def test_benchmark_json_matches_what_the_benchmark_emits():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.FULL)
