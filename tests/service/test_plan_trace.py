"""Wire round-trip for plan pricing and release traces.

The acceptance criteria for the staged-pipeline service surface:

* ``GET /v1/plan`` prices a release without building a session,
  touching data, or spending tenant budget — and typo'd planners
  answer the structured ``unknown_planner`` code before any of that
  could happen;
* a release with ``"trace": true`` round-trips the per-stage
  execution record (ε sums to the request budget), while traces stay
  strictly opt-in otherwise;
* ``/metrics`` aggregates per-stage pipeline counters across served
  releases.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.errors import UnknownPlannerError, ValidationError
from repro.service import PrivBasisService, ServiceClient, TenantRegistry

DATASET = "mushroom"  # registry name; data comes from the fake loader


def small_database(seed: int = 5) -> TransactionDatabase:
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(200):
        row = set()
        if rng.random() < 0.6:
            row.update(i for i in range(5) if rng.random() < 0.9)
        row.update(int(item) for item in rng.choice(15, size=3))
        rows.append(sorted(row))
    return TransactionDatabase(rows, num_items=15)


class CountingLoader:
    def __init__(self) -> None:
        self.calls = 0
        self._database = small_database()

    def __call__(self, name: str) -> TransactionDatabase:
        assert name == DATASET
        self.calls += 1
        return self._database


def make_service():
    registry = TenantRegistry.from_mapping(
        {"alice": {"dataset": DATASET, "epsilon_limit": 4.0}}
    )
    loader = CountingLoader()
    return PrivBasisService(registry, dataset_loader=loader), loader


def run(coro):
    return asyncio.run(coro)


class TestPlanEndpoint:
    def test_plan_spends_nothing_and_touches_no_data(self):
        async def scenario():
            service, loader = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    plan = await client.plan(
                        k=30, epsilon=0.5, planner="adaptive"
                    )
                    # No session was built, the loader never ran, the
                    # ledger is untouched.
                    assert loader.calls == 0
                    assert service.session_for(DATASET) is None
                    budget = await client.budget()
                    assert budget["ledger"]["spent"] == 0.0
                    return plan

        plan = run(scenario())
        assert plan["tenant"] == "alice"
        assert plan["dataset"] == DATASET
        assert plan["planner"]["name"] == "adaptive"
        assert plan["epsilon"] == 0.5
        assert plan["affordable"] is True
        assert plan["remaining"] == 4.0
        names = [stage["stage"] for stage in plan["stages"]]
        assert names == [
            "get_lambda",
            "select_items",
            "select_pairs",
            "construct_basis",
            "basis_freq",
        ]
        priced = {
            stage["stage"]: stage["epsilon"] for stage in plan["stages"]
        }
        assert priced["get_lambda"] == pytest.approx(0.05)
        assert priced["basis_freq"] == pytest.approx(0.25)
        assert priced["select_items"] is None  # resolved from λ

    def test_plan_flags_unaffordable_epsilon(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    return await client.plan(k=10, epsilon=9.0)

        plan = run(scenario())
        assert plan["affordable"] is False

    def test_plan_custom_alphas_roundtrip(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    return await client.plan(
                        k=10,
                        epsilon=1.0,
                        planner="custom",
                        alphas=[0.2, 0.3, 0.5],
                    )

        plan = run(scenario())
        assert plan["planner"] == {
            "name": "custom",
            "alphas": [0.2, 0.3, 0.5],
        }
        priced = {
            stage["stage"]: stage["epsilon"] for stage in plan["stages"]
        }
        assert priced["get_lambda"] == pytest.approx(0.2)
        assert priced["basis_freq"] == pytest.approx(0.5)

    def test_unknown_planner_is_structured_and_free(self):
        async def scenario():
            service, loader = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    with pytest.raises(UnknownPlannerError) as excinfo:
                        await client.plan(k=10, epsilon=0.5,
                                          planner="bogus")
                    assert excinfo.value.planner == "bogus"
                    assert "paper" in excinfo.value.known
                    with pytest.raises(UnknownPlannerError):
                        await client.release(
                            k=10, epsilon=0.5, planner="bogus"
                        )
                    # Neither failed request built a session or
                    # charged the ledger.
                    assert loader.calls == 0
                    budget = await client.budget()
                    assert budget["ledger"]["spent"] == 0.0

        run(scenario())

    def test_auto_is_an_unknown_planner_on_the_wire(self):
        async def scenario():
            from repro.service import http

            service, loader = make_service()
            async with service.serving() as (host, port):
                reader, writer = await asyncio.open_connection(host, port)
                http.write_request(writer, "GET", "/v1/budget?tenant=alice")
                await writer.drain()
                before = await http.read_response(reader)
                http.write_request(
                    writer, "POST", "/v1/release",
                    {"tenant": "alice", "k": 5, "epsilon": 0.5,
                     "planner": "auto"},
                )
                await writer.drain()
                release = await http.read_response(reader)
                http.write_request(
                    writer, "GET",
                    "/v1/plan?tenant=alice&k=5&epsilon=0.5&planner=auto",
                )
                await writer.drain()
                plan = await http.read_response(reader)
                http.write_request(writer, "GET", "/v1/budget?tenant=alice")
                await writer.drain()
                after = await http.read_response(reader)
                writer.close()
            return loader, before, release, plan, after

        loader, before, release, plan, after = run(scenario())
        for status, payload in (release, plan):
            assert status == 400
            assert payload["error"] == "unknown_planner"
            assert payload["planner"] == "auto"
            assert payload["known"] == ["adaptive", "custom", "paper"]
        assert before[0] == after[0] == 200
        assert after[1] == before[1]
        assert loader.calls == 0

    def test_plan_validates_query(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    with pytest.raises(ValidationError):
                        await client._roundtrip(
                            "GET", "/v1/plan?tenant=alice&k=ten&epsilon=1"
                        )
                    with pytest.raises(ValidationError):
                        await client._roundtrip(
                            "GET", "/v1/plan?tenant=alice&k=5"
                        )

        run(scenario())


class TestTraceRoundTrip:
    def test_traced_release_roundtrips_stages(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    traced = await client.release(
                        k=15, epsilon=0.6, planner="adaptive", trace=True
                    )
                    plain = await client.release(k=15, epsilon=0.6)
                    metrics = await client.metrics()
                    return traced, plain, metrics

        traced, plain, metrics = run(scenario())
        assert "trace" not in plain  # strictly opt-in
        trace = traced["trace"]
        assert trace["planner"] == "adaptive"
        assert trace["branch"] in ("single_basis", "pairs")
        assert trace["epsilon_spent"] == pytest.approx(0.6)
        spent = sum(stage["epsilon"] for stage in trace["stages"])
        assert spent == pytest.approx(0.6)
        for stage in trace["stages"]:
            assert stage["wall_time_ms"] >= 0
            if stage["stage"] == "construct_basis":
                assert stage["queries"] == {}

        pipeline = metrics["pipeline"]
        assert pipeline["releases"] == 2
        assert pipeline["planners"] == {"adaptive": 1, "paper": 1}
        assert set(pipeline["stages"]) >= {
            "get_lambda",
            "select_items",
            "construct_basis",
            "basis_freq",
        }
        get_lambda = pipeline["stages"]["get_lambda"]
        assert get_lambda["runs"] == 2
        assert get_lambda["epsilon_total"] == pytest.approx(0.12)
        assert get_lambda["queries"]["top_k"] == 2

    def test_batch_trace_per_entry(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    return await client.release_batch(
                        [
                            {"k": 10, "epsilon": 0.3, "trace": True},
                            {"k": 10, "epsilon": 0.3},
                        ]
                    )

        response = run(scenario())
        first, second = response["results"]
        assert "trace" in first
        assert "trace" not in second
        assert first["trace"]["epsilon_spent"] == pytest.approx(0.3)

    def test_trace_must_be_boolean(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="alice"
                ) as client:
                    with pytest.raises(ValidationError):
                        await client._roundtrip(
                            "POST",
                            "/v1/release",
                            {
                                "tenant": "alice",
                                "k": 5,
                                "epsilon": 0.1,
                                "trace": "yes",
                            },
                        )

        run(scenario())
