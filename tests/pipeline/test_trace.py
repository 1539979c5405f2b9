"""Plan pricing and trace contracts of the staged pipeline.

Pins the two observability surfaces the service builds on: a
:class:`ReleasePlan` must price from public parameters only (no data
access anywhere in construction), and every executed release must
carry a complete :class:`ReleaseTrace` whose per-stage ε sums to the
release budget exactly.
"""

from __future__ import annotations

import pytest

from repro.core.privbasis import privbasis
from repro.engine.bitmap import BitmapBackend
from repro.errors import ValidationError
from repro.pipeline import (
    AdaptivePlanner,
    PaperPlanner,
    QueryCountingBackend,
    build_plan,
    execute_plan,
    planned_release,
)


class TestPlanPricing:
    def test_paper_plan_prices_all_stages(self):
        plan = build_plan(100, 0.5)
        described = plan.describe()
        names = [stage["stage"] for stage in described["stages"]]
        assert names == [
            "get_lambda",
            "select_items",
            "select_pairs",
            "construct_basis",
            "basis_freq",
        ]
        by_name = {
            stage["stage"]: stage for stage in described["stages"]
        }
        assert by_name["get_lambda"]["epsilon"] == pytest.approx(0.05)
        assert by_name["basis_freq"]["epsilon"] == pytest.approx(0.25)
        # The α₂ subdivision is data-dependent → quoted unresolved.
        assert by_name["select_items"]["epsilon"] is None
        assert by_name["select_pairs"]["conditional"] is True
        assert by_name["construct_basis"]["epsilon"] == 0.0
        assert by_name["construct_basis"]["touches_data"] is False

    def test_shares_sum_to_one(self):
        plan = build_plan(50, 1.0, planner="adaptive")
        shares = [
            stage["share"]
            for stage in plan.describe()["stages"]
            if stage["share"] is not None
        ]
        assert sum(shares) == pytest.approx(1.0)

    def test_plan_validates_parameters(self):
        with pytest.raises(ValidationError):
            build_plan(0, 1.0)
        with pytest.raises(ValidationError):
            build_plan(10, 0.0)
        with pytest.raises(ValidationError):
            build_plan(10, 1.0, noise="cauchy")
        with pytest.raises(ValidationError):
            build_plan(10, 1.0, eta=0.5)

    @pytest.mark.parametrize("k", [2.7, 5.0, True, "5", None])
    def test_plan_rejects_non_integer_k(self, k):
        # int(2.7) would publish a k=2 release nobody asked for.
        with pytest.raises(ValidationError, match="integer"):
            build_plan(k, 1.0)

    def test_plan_accepts_numpy_integer_k(self):
        import numpy as np

        plan = build_plan(np.int64(5), 1.0)
        assert plan.k == 5 and type(plan.k) is int

    @pytest.mark.parametrize("epsilon", ["abc", None, [1.0]])
    def test_plan_rejects_unconvertible_epsilon(self, epsilon):
        with pytest.raises(ValidationError, match="number"):
            build_plan(10, epsilon)

    def test_plan_is_data_free(self):
        # Pricing must be pure arithmetic: nothing in build_plan takes
        # a database, and the planner payload is JSON-serializable.
        import json

        plan = build_plan(
            25, 0.4, planner={"name": "custom", "alphas": [0.2, 0.3, 0.5]}
        )
        payload = json.dumps(plan.describe())
        assert "custom" in payload


class TestReleaseTrace:
    def test_trace_attached_and_complete(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=0.8, rng=0)
        trace = result.trace
        assert trace is not None
        assert trace.planner == "paper"
        assert trace.lam == result.lam
        assert trace.epsilon_spent == pytest.approx(0.8)
        assert trace.branch in ("single_basis", "pairs")
        assert trace.used_single_basis == result.used_single_basis

    def test_stage_epsilons_match_ledger(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=0.6, rng=3)
        spent = [
            stage.epsilon
            for stage in result.trace.stages
            if stage.epsilon > 0
        ]
        assert spent == [entry.epsilon for entry in result.budget.entries]

    def test_data_stages_record_queries(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=1.0, rng=0)
        get_lambda = result.trace.stage("get_lambda")
        assert get_lambda.queries.get("item_supports", 0) >= 1
        assert get_lambda.queries.get("top_k", 0) >= 1
        basis_freq = result.trace.stage("basis_freq")
        assert basis_freq.queries.get("bin_counts", 0) >= 1
        construct = result.trace.stage("construct_basis")
        assert construct.queries == {}
        assert construct.touches_data is False

    def test_pairs_branch_traces_select_pairs(self, dense_db):
        result = privbasis(
            dense_db, k=10, epsilon=1.0, rng=0, single_basis_lambda=1
        )
        assert result.trace.branch == "pairs"
        pairs = result.trace.stage("select_pairs")
        assert pairs is not None
        assert pairs.queries.get("pairwise_supports", 0) >= 1

    def test_single_basis_branch_skips_select_pairs(self, dense_db):
        result = privbasis(dense_db, k=10, epsilon=1.0, rng=0)
        if result.trace.branch == "single_basis":
            assert result.trace.stage("select_pairs") is None

    def test_adaptive_trace_shows_reallocation(self, dense_db):
        result = planned_release(
            dense_db, k=10, epsilon=1.0, planner="adaptive", rng=0
        )
        assert result.trace.planner == "adaptive"
        assert result.trace.epsilon_spent == pytest.approx(1.0)
        if result.trace.branch == "single_basis":
            basis_freq = result.trace.stage("basis_freq")
            assert basis_freq.epsilon > 0.5  # got the α₂ remainder

    def test_trace_wire_shape(self, dense_db):
        import json

        result = privbasis(dense_db, k=5, epsilon=0.5, rng=1)
        wire = result.trace.to_wire()
        json.dumps(wire)  # JSON-serializable end to end
        assert wire["epsilon_spent"] == pytest.approx(0.5)
        for stage in wire["stages"]:
            assert set(stage) == {
                "stage",
                "epsilon",
                "touches_data",
                "wall_time_ms",
                "queries",
                "note",
            }
            assert stage["wall_time_ms"] >= 0

    def test_execute_plan_reuses_plan_object(self, dense_db):
        plan = build_plan(10, 0.5, planner=AdaptivePlanner())
        first = execute_plan(plan, dense_db, rng=7)
        second = execute_plan(plan, dense_db, rng=7)
        assert first.itemset_set() == second.itemset_set()


class TestQueryCountingBackend:
    def test_counts_and_delegates(self, dense_db):
        probe = QueryCountingBackend(BitmapBackend(dense_db))
        supports = probe.item_supports()
        assert supports.sum() > 0
        probe.conjunction_support((0, 1))
        probe.bin_counts((0, 1, 2))
        probe.top_k(5)
        assert probe.counts() == {
            "item_supports": 1,
            "conjunction_support": 1,
            "bin_counts": 1,
            "top_k": 1,
        }

    def test_paper_planner_results_unchanged_by_probe(self, dense_db):
        backend = BitmapBackend(dense_db)
        direct = privbasis(dense_db, k=8, epsilon=0.7, rng=5)
        probed = privbasis(
            dense_db,
            k=8,
            epsilon=0.7,
            rng=5,
            backend=QueryCountingBackend(backend),
        )
        assert direct.itemset_set() == probed.itemset_set()
