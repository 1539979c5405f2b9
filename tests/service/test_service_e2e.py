"""End-to-end service tests over a real socket.

The acceptance scenario for the service layer: start the server
in-process on an ephemeral port, run two tenants against the same
dataset concurrently, and verify

* cold-start work is coalesced — the dataset is loaded and the
  item-support scan runs exactly once (asserted via backend stats);
* coalesced requests still get **distinct** noisy outputs (noise is
  never shared);
* each tenant's ε ledger is charged independently and exactly;
* a tenant whose ``epsilon_limit`` would be exceeded gets HTTP 403
  with a structured ``budget_exceeded`` payload;
* admission control answers 429 once ``max_inflight`` is reached;
* ``/v1/ingest`` interleaved with ``/v1/release`` coalesces cold
  starts, serializes against releases (each release reports the
  snapshot version it pinned), and respects per-tenant ingest
  permissions.

The registry's ``mushroom`` name is bound to a small synthetic
database through the injectable ``dataset_loader``, keeping the test
hermetic and fast.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.errors import (
    BudgetExceededError,
    IngestNotAllowedError,
    OverloadedError,
    UnknownTenantError,
    ValidationError,
)
from repro.service import PrivBasisService, ServiceClient, TenantRegistry

DATASET = "mushroom"  # registry name; data comes from the fake loader


def small_database(seed: int = 5) -> TransactionDatabase:
    """A 200-transaction database with a planted frequent block."""
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
    """Dataset loader that records how many times it actually built."""

    def __init__(self) -> None:
        self.calls = 0
        self._database = small_database()

    def __call__(self, name: str) -> TransactionDatabase:
        assert name == DATASET
        self.calls += 1
        return self._database


def make_service(max_inflight: int = 8):
    registry = TenantRegistry.from_mapping(
        {
            "alice": {"dataset": DATASET, "epsilon_limit": 3.0},
            "bob": {"dataset": DATASET, "epsilon_limit": 3.0},
            "carol": {"dataset": DATASET, "epsilon_limit": 1.0},
        }
    )
    loader = CountingLoader()
    service = PrivBasisService(
        registry, dataset_loader=loader, max_inflight=max_inflight
    )
    return service, loader


async def release_once(host, port, tenant, k=8, epsilon=0.5):
    async with ServiceClient(host, port, tenant=tenant) as client:
        return await client.release(k=k, epsilon=epsilon)


class TestTwoTenantScenario:
    def test_concurrent_cold_start_is_coalesced_with_distinct_noise(self):
        async def scenario():
            service, loader = make_service()
            async with service.serving() as (host, port):
                first, second = await asyncio.gather(
                    release_once(host, port, "alice"),
                    release_once(host, port, "bob"),
                )
                async with ServiceClient(host, port) as client:
                    metrics = await client.metrics()
                    alice = await client.budget(tenant="alice")
                    bob = await client.budget(tenant="bob")
            return service, loader, first, second, metrics, alice, bob

        service, loader, first, second, metrics, alice, bob = asyncio.run(
            scenario()
        )

        # Cold-start work happened once: one dataset build, one
        # item-support scan, one coalesced waiter.
        assert loader.calls == 1
        assert metrics["coalescer"]["started"] == 1
        assert metrics["coalescer"]["coalesced"] == 1
        cache = metrics["datasets"][DATASET]["cache"]
        assert cache["item_supports"]["misses"] == 1
        assert cache["item_supports"]["hits"] >= 2

        # Coalescing shared the exact substrate, never the noise:
        # byte-identical requests, distinct outputs.
        noisy_first = [e["noisy_frequency"] for e in first["itemsets"]]
        noisy_second = [e["noisy_frequency"] for e in second["itemsets"]]
        assert noisy_first != noisy_second

        # Per-tenant ledgers: each tenant paid exactly its own 0.5.
        for snapshot in (alice, bob):
            assert snapshot["ledger"]["spent"] == pytest.approx(0.5)
            assert snapshot["ledger"]["remaining"] == pytest.approx(2.5)
            assert [
                entry["epsilon"] for entry in snapshot["ledger"]["entries"]
            ] == [pytest.approx(0.5)]
        # The result store counted both releases (dataset-level
        # total); no session-level limit exists to report.
        assert metrics["datasets"][DATASET]["num_releases"] == 2
        assert metrics["datasets"][DATASET]["epsilon_spent"] == (
            pytest.approx(1.0)
        )
        assert "epsilon_limit" not in metrics["datasets"][DATASET]

    def test_warm_requests_hit_caches_without_rebuilds(self):
        async def scenario():
            service, loader = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    await c.release(k=8, epsilon=0.25)
                    first = service.session_for(DATASET).stats()
                    await c.release(k=8, epsilon=0.25)
                    stats = service.session_for(DATASET).stats()
            return loader, first, stats

        loader, first, stats = asyncio.run(scenario())
        assert loader.calls == 1
        # The warm release's item supports and top-k oracle hit the
        # memo the first one filled: it added no miss of either kind.
        for kind in ("item_supports", "top_k"):
            assert (
                stats["cache"][kind]["misses"]
                == first["cache"][kind]["misses"]
            ), kind
        hits = sum(entry["hits"] for entry in stats["cache"].values())
        assert hits > 0


class TestBudgetEnforcement:
    def test_403_once_epsilon_limit_is_exhausted(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="carol") as c:
                    await c.release(k=5, epsilon=0.8)
                    with pytest.raises(BudgetExceededError) as info:
                        await c.release(k=5, epsilon=0.8)
                    snapshot = await c.budget()
            return info.value, snapshot

        error, snapshot = asyncio.run(scenario())
        # Structured payload: the client knows what it asked for and
        # what is left, without parsing the message.
        assert error.requested == pytest.approx(0.8)
        assert error.remaining == pytest.approx(0.2)
        # The refused release did not touch the ledger.
        assert snapshot["ledger"]["spent"] == pytest.approx(0.8)
        assert len(snapshot["ledger"]["entries"]) == 1

    def test_batch_is_all_or_nothing_against_the_ledger(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="carol") as c:
                    with pytest.raises(BudgetExceededError):
                        await c.release_batch(
                            [
                                {"k": 5, "epsilon": 0.6},
                                {"k": 5, "epsilon": 0.6},
                            ]
                        )
                    after_reject = await c.budget()
                    ok = await c.release_batch(
                        [
                            {"k": 5, "epsilon": 0.3},
                            {"k": 5, "epsilon": 0.3},
                        ]
                    )
                    after_ok = await c.budget()
            return after_reject, ok, after_ok

        after_reject, ok, after_ok = asyncio.run(scenario())
        # The oversized batch charged nothing at all.
        assert after_reject["ledger"]["spent"] == 0.0
        assert len(ok["results"]) == 2
        assert after_ok["ledger"]["spent"] == pytest.approx(0.6)

    def test_batch_and_plan_admit_what_a_single_release_admits(self):
        # 0.3 - 0.1 leaves 0.19999999999999998: a 0.2 spend fits
        # within the ledger's tolerance on every admission path.
        async def scenario():
            service = PrivBasisService(
                TenantRegistry.from_mapping(
                    {"dave": {"dataset": DATASET, "epsilon_limit": 0.3}}
                ),
                dataset_loader=lambda name: small_database(),
            )
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="dave") as c:
                    await c.release(k=5, epsilon=0.1)
                    plan = await c.plan(k=5, epsilon=0.2)
                    batch = await c.release_batch(
                        [{"k": 5, "epsilon": 0.2}]
                    )
                    budget = await c.budget()
            return plan, batch, budget

        plan, batch, budget = asyncio.run(scenario())
        assert plan["affordable"] is True
        assert len(batch["results"]) == 1
        assert budget["ledger"]["spent"] == pytest.approx(0.3)

    def test_unknown_tenant_is_typed(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port) as client:
                    with pytest.raises(UnknownTenantError):
                        await client.release(
                            k=5, epsilon=0.1, tenant="mallory"
                        )
                    with pytest.raises(UnknownTenantError):
                        await client.budget(tenant="mallory")

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_429_when_max_inflight_is_reached(self):
        async def scenario():
            service, _ = make_service(max_inflight=1)
            async with service.serving() as (host, port):
                # Pre-build the session, then hold the dataset's
                # release lock so an admitted request stays in flight
                # deterministically.
                await service.get_session(DATASET)
                lock = service._lock_for(DATASET)
                await lock.acquire()
                try:
                    blocked = asyncio.create_task(
                        release_once(host, port, "alice")
                    )
                    while service.in_flight < 1:
                        await asyncio.sleep(0.005)
                    with pytest.raises(OverloadedError) as info:
                        await release_once(host, port, "bob")
                finally:
                    lock.release()
                first = await blocked
            return info.value, first

        error, first = asyncio.run(scenario())
        assert error.limit == 1
        # The admitted request finished normally once the lock freed.
        assert first["itemsets"]

    def test_batch_admission_is_weighted_by_request_count(self):
        # max_inflight bounds *releases*, not HTTP requests: a batch
        # wider than the limit is refused outright.
        async def scenario():
            service, _ = make_service(max_inflight=2)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    with pytest.raises(OverloadedError):
                        await c.release_batch(
                            [{"k": 5, "epsilon": 0.1}] * 3
                        )
                    after_reject = await c.budget()
                    ok = await c.release_batch(
                        [{"k": 5, "epsilon": 0.1}] * 2
                    )
            return after_reject, ok

        after_reject, ok = asyncio.run(scenario())
        # The refused batch charged nothing.
        assert after_reject["ledger"]["spent"] == 0.0
        assert len(ok["results"]) == 2

    def test_slot_is_released_after_each_request(self):
        async def scenario():
            service, _ = make_service(max_inflight=1)
            async with service.serving() as (host, port):
                for _ in range(3):  # sequential requests all admitted
                    await release_once(
                        host, port, "alice", epsilon=0.2
                    )
                return service.in_flight

        assert asyncio.run(scenario()) == 0


class TestStreamingIngest:
    def test_ingest_advances_snapshot_and_releases_pin_it(self):
        async def scenario():
            service, loader = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    before = await c.snapshot()
                    first = await c.release(k=8, epsilon=0.25)
                    info = await c.ingest([[0, 1, 2], [3, 4], []])
                    second = await c.release(k=8, epsilon=0.25)
                    after = await c.snapshot()
                    budget = await c.budget()
            return loader, before, first, info, second, after, budget

        loader, before, first, info, second, after, budget = asyncio.run(
            scenario()
        )
        assert loader.calls == 1
        # The data state advanced exactly once, by exactly the batch.
        assert before["snapshot_version"] == 0
        assert info["snapshot_version"] == 1
        assert info["appended"] == 3
        assert info["num_transactions"] == (
            before["num_transactions"] + 3
        )
        assert after["snapshot_version"] == 1
        assert after["num_transactions"] == info["num_transactions"]
        # Each release reports the snapshot it was computed on.
        assert first["snapshot_version"] == 0
        assert second["snapshot_version"] == 1
        # Ingestion consumed no ε — only the two releases did.
        assert budget["ledger"]["spent"] == pytest.approx(0.5)

    def test_cold_ingest_and_release_coalesce_to_one_build(self):
        async def scenario():
            service, loader = make_service()
            async with service.serving() as (host, port):
                async def ingest_once():
                    async with ServiceClient(
                        host, port, tenant="bob"
                    ) as c:
                        return await c.ingest([[1, 2], [3]])

                release_result, ingest_result = await asyncio.gather(
                    release_once(host, port, "alice"), ingest_once()
                )
                async with ServiceClient(host, port) as client:
                    metrics = await client.metrics()
            return loader, release_result, ingest_result, metrics

        loader, release_result, ingest_result, metrics = asyncio.run(
            scenario()
        )
        # One cold build served both the ingest and the release.
        assert loader.calls == 1
        assert metrics["coalescer"]["started"] == 1
        assert metrics["coalescer"]["coalesced"] == 1
        # The per-dataset lock serialized them: the release saw either
        # the pre-ingest or post-ingest snapshot, never a torn state.
        assert release_result["snapshot_version"] in (0, 1)
        assert ingest_result["snapshot_version"] == 1
        stats = metrics["datasets"][DATASET]
        assert stats["snapshot_version"] == 1
        assert stats["num_transactions"] == 202

    def test_read_only_tenant_gets_403_ingest_forbidden(self):
        async def scenario():
            registry = TenantRegistry.from_mapping(
                {
                    "feed": {"dataset": DATASET, "epsilon_limit": 5.0},
                    "analyst": {
                        "dataset": DATASET,
                        "epsilon_limit": 5.0,
                        "ingest": False,
                    },
                }
            )
            service = PrivBasisService(
                registry, dataset_loader=CountingLoader()
            )
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="analyst"
                ) as c:
                    with pytest.raises(IngestNotAllowedError) as info:
                        await c.ingest([[0, 1]])
                    snapshot = await c.snapshot()
                    budget = await c.budget()
                async with ServiceClient(host, port, tenant="feed") as c:
                    allowed = await c.ingest([[0, 1]])
            return info.value, snapshot, budget, allowed

        error, snapshot, budget, allowed = asyncio.run(scenario())
        assert error.tenant_id == "analyst"
        # The refused ingest changed nothing; reads still work.
        assert snapshot["snapshot_version"] == 0
        assert budget["ingest"] is False
        assert allowed["snapshot_version"] == 1

    def test_malformed_and_out_of_vocabulary_ingests_are_400(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    with pytest.raises(ValidationError):
                        await c.ingest([])  # empty batch
                    with pytest.raises(ValidationError):
                        await c.ingest([[999]])  # outside |I| = 15
                    snapshot = await c.snapshot()
            return snapshot

        snapshot = asyncio.run(scenario())
        # Neither bad batch advanced the data.
        assert snapshot["snapshot_version"] == 0
        assert snapshot["num_transactions"] == 200

    def test_snapshot_requires_known_tenant_parameter(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port) as client:
                    with pytest.raises(ValidationError):
                        await client.snapshot(tenant="")
                    with pytest.raises(UnknownTenantError):
                        await client.snapshot(tenant="mallory")

        asyncio.run(scenario())


class TestWireContract:
    def test_unconvertible_numbers_are_400_before_any_charge(self):
        # float() overflows on the first body and raises TypeError on
        # the second; both must answer a typed 400, not a 500.
        bodies = [
            {"tenant": "alice", "k": 5, "epsilon": 10 ** 400},
            {
                "tenant": "alice",
                "k": 5,
                "epsilon": 1,
                "planner": {"name": "custom", "alphas": [None, 0.5, 0.5]},
            },
        ]

        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                from repro.service import http

                async with ServiceClient(host, port) as client:
                    before = await client.budget(tenant="alice")
                replies = []
                for body in bodies:
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                    http.write_request(writer, "POST", "/v1/release", body)
                    await writer.drain()
                    replies.append(await http.read_response(reader))
                    writer.close()
                async with ServiceClient(host, port) as client:
                    after = await client.budget(tenant="alice")
            return before, replies, after

        before, replies, after = asyncio.run(scenario())
        for status, payload in replies:
            assert status == 400
            assert payload["error"] == "validation_error"
        assert "alphas[0]" in replies[1][1]["message"]
        assert after == before
        assert after["ledger"]["spent"] == 0

    def test_seedful_requests_rejected_over_the_wire(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                reader, writer = await asyncio.open_connection(host, port)
                from repro.service import http

                http.write_request(
                    writer,
                    "POST",
                    "/v1/release",
                    {
                        "tenant": "alice",
                        "k": 5,
                        "epsilon": 0.5,
                        "seed": 1234,
                    },
                )
                await writer.drain()
                status, payload = await http.read_response(reader)
                writer.close()
            return status, payload

        status, payload = asyncio.run(scenario())
        assert status == 400
        assert payload["error"] == "validation_error"
        assert "seed-less" in payload["message"]

    def test_unknown_route_and_wrong_method(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                from repro.service import http

                reader, writer = await asyncio.open_connection(host, port)
                http.write_request(writer, "GET", "/v2/nothing")
                await writer.drain()
                missing = await http.read_response(reader)
                http.write_request(writer, "DELETE", "/healthz")
                await writer.drain()
                wrong = await http.read_response(reader)
                writer.close()
            return missing, wrong

        missing, wrong = asyncio.run(scenario())
        assert missing[0] == 404
        assert wrong[0] == 405

    def test_healthz_and_metrics_shapes(self):
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    health_cold = await c.healthz()
                    await c.release(k=5, epsilon=0.1)
                    health_warm = await c.healthz()
                    metrics = await c.metrics()
            return health_cold, health_warm, metrics

        health_cold, health_warm, metrics = asyncio.run(scenario())
        assert health_cold["status"] == "ok"
        assert health_cold["warm"] == []
        assert health_warm["warm"] == [DATASET]
        assert metrics["http"]["requests"]["/v1/release"] == 1
        assert metrics["http"]["statuses"]["/v1/release:200"] == 1
        latency = metrics["http"]["latency_ms"]["/v1/release"]
        assert latency["count"] == 1
        assert latency["buckets"][-1]["count"] == 1

    def test_unmatched_paths_share_one_metrics_label(self):
        # A path-spraying client must not grow per-route metrics state.
        async def scenario():
            service, _ = make_service()
            async with service.serving() as (host, port):
                from repro.service import http

                reader, writer = await asyncio.open_connection(host, port)
                for index in range(5):
                    http.write_request(writer, "GET", f"/spray/{index}")
                    await writer.drain()
                    await http.read_response(reader)
                writer.close()
                async with ServiceClient(host, port) as client:
                    return await client.metrics()

        metrics = asyncio.run(scenario())
        assert metrics["http"]["requests"]["unknown"] == 5
        sprayed = [
            route
            for route in metrics["http"]["requests"]
            if route.startswith("/spray")
        ]
        assert sprayed == []

    def test_default_loader_rejects_unknown_datasets_at_startup(self):
        registry = TenantRegistry.from_mapping(
            {"alice": {"dataset": "no_such_set", "epsilon_limit": 1.0}}
        )
        with pytest.raises(ValidationError, match="no_such_set"):
            PrivBasisService(registry)  # default loader → fail fast

    def test_custom_loader_owns_its_dataset_namespace(self):
        # An injected loader serves names the built-in registry has
        # never heard of.
        async def scenario():
            registry = TenantRegistry.from_mapping(
                {"alice": {"dataset": "internal_sales",
                           "epsilon_limit": 2.0}}
            )
            service = PrivBasisService(
                registry, dataset_loader=lambda name: small_database()
            )
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    return await c.release(k=5, epsilon=0.5)

        assert asyncio.run(scenario())["dataset"] == "internal_sales"

    def test_unexpected_server_error_answers_json_500(self):
        # A crashing loader (a bug, a missing file) must surface as a
        # structured 500, not a dropped connection.
        async def scenario():
            registry = TenantRegistry.from_mapping(
                {"alice": {"dataset": "doomed", "epsilon_limit": 1.0}}
            )

            def exploding_loader(name):
                raise FileNotFoundError(f"no data for {name}")

            service = PrivBasisService(
                registry, dataset_loader=exploding_loader
            )
            async with service.serving() as (host, port):
                from repro.service import http

                reader, writer = await asyncio.open_connection(host, port)
                http.write_request(
                    writer,
                    "POST",
                    "/v1/release",
                    {"tenant": "alice", "k": 5, "epsilon": 0.5},
                )
                await writer.drain()
                status, payload = await http.read_response(reader)
                writer.close()
                snapshot = service.registry.get("alice").snapshot()
            return status, payload, snapshot

        status, payload, snapshot = asyncio.run(scenario())
        assert status == 500
        assert payload["error"] == "internal_error"
        assert "FileNotFoundError" in payload["message"]
        # The failed cold start never reached the ledger.
        assert snapshot["ledger"]["spent"] == 0.0

    def test_budget_for_tenant_id_needing_url_encoding(self):
        async def scenario():
            registry = TenantRegistry.from_mapping(
                {"team a&b": {"dataset": "x", "epsilon_limit": 1.0}}
            )
            service = PrivBasisService(
                registry, dataset_loader=lambda name: small_database()
            )
            async with service.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="team a&b"
                ) as client:
                    return await client.budget()

        snapshot = asyncio.run(scenario())
        assert snapshot["tenant"] == "team a&b"

    def test_client_requires_a_tenant(self):
        client = ServiceClient("127.0.0.1", 1)
        with pytest.raises(ValidationError):
            asyncio.run(client.release(k=5, epsilon=0.1))


class TestCountingPlaneFlags:
    CLUSTER = {
        "tenants": {"alice": {"dataset": DATASET, "epsilon_limit": 1.0}},
        "state_dir": "unused",
    }
    REGISTRY = CLUSTER["tenants"]

    @staticmethod
    def serve_nothing(monkeypatch):
        """Make ``main`` return instead of serving once its flags parse."""
        from repro.service import __main__ as cli

        async def parsed(arguments):
            return 0

        monkeypatch.setattr(cli, "_run", parsed)
        return cli.main

    def test_mmap_settings_reach_the_sharded_backend(
        self, tmp_path, monkeypatch
    ):
        import tempfile

        from repro.engine import ShardedBackend

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        service = PrivBasisService(
            TenantRegistry.from_mapping(self.REGISTRY),
            dataset_loader=lambda name: small_database(),
            data_plane="mmap", memory_budget_mb=3,
        )
        database = small_database()
        with service._build_mmap_backend(DATASET, database) as backend:
            assert isinstance(backend, ShardedBackend)
            assert backend.store.memory_budget_bytes == 3 << 20
            assert backend.num_transactions == database.num_transactions

    def test_mmap_build_leaves_the_loaded_copy_garbage(
        self, tmp_path, monkeypatch
    ):
        """Once a session is spilled, nothing pins the database the
        loader returned — the registry included."""
        import tempfile
        import weakref

        from repro.datasets.registry import load_dataset

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setenv("REPRO_TIER_DIR", str(tmp_path / "tiers"))
        loaded = []

        def loader(name):
            database = load_dataset(name)
            loaded.append(weakref.ref(database))
            return database

        service = PrivBasisService(
            TenantRegistry.from_mapping(
                {"alice": {"dataset": "tier-tiny", "epsilon_limit": 1.0}}
            ),
            dataset_loader=loader,
            data_plane="mmap",
        )

        async def scenario():
            session = await service._build_session("tier-tiny")
            dead = [ref() is None for ref in loaded]
            await service.stop()
            return session.backend.num_transactions, dead

        num_transactions, dead = asyncio.run(scenario())
        assert num_transactions == 2_000
        assert dead == [True]

    @pytest.mark.parametrize(
        "flag", ["--parallel", "--shard-size", "--shard-workers"]
    )
    def test_removed_flag_is_gone(self, capsys, flag):
        from repro.service.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--data-plane", "mmap", flag, "4"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "target, keyword",
        [
            ("cluster", "parallel"),
            ("cluster", "shard_size"),
            ("cluster", "shard_workers"),
            ("service", "backend_factory"),
            ("service", "shard_size"),
            ("service", "shard_workers"),
        ],
    )
    def test_removed_keyword_is_gone(self, target, keyword):
        from repro.service import ClusterConfig

        with pytest.raises(TypeError):
            if target == "cluster":
                ClusterConfig(**self.CLUSTER, data_plane="mmap",
                              **{keyword: 4})
            else:
                PrivBasisService(
                    TenantRegistry.from_mapping(self.REGISTRY),
                    data_plane="mmap", **{keyword: 4},
                )

    def test_mmap_only_setting_rejected_on_memory_plane(
        self, capsys, monkeypatch
    ):
        from repro.service import ClusterConfig

        main = self.serve_nothing(monkeypatch)
        assert main(["--data-plane", "mmap", "--memory-budget-mb", "4"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["--memory-budget-mb", "4"])
        assert excinfo.value.code == 2
        assert "memory_budget_mb applies only to data_plane='mmap'" in (
            capsys.readouterr().err
        )
        with pytest.raises(ValidationError, match="only to data_plane"):
            PrivBasisService(
                TenantRegistry.from_mapping(self.REGISTRY),
                memory_budget_mb=4,
            )
        with pytest.raises(ValidationError, match="only to data_plane"):
            ClusterConfig(**self.CLUSTER, memory_budget_mb=4).validate()

    @pytest.mark.parametrize("value", [0, -3])
    def test_memory_budget_below_one_fails_at_startup(
        self, capsys, monkeypatch, value
    ):
        from repro.service import ClusterConfig

        main = self.serve_nothing(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["--data-plane", "mmap", "--memory-budget-mb", str(value)])
        assert excinfo.value.code == 2
        assert "memory_budget_mb must be >= 1" in capsys.readouterr().err
        with pytest.raises(ValidationError, match="memory_budget_mb must"):
            PrivBasisService(
                TenantRegistry.from_mapping(self.REGISTRY),
                data_plane="mmap", memory_budget_mb=value,
            )
        with pytest.raises(ValidationError, match="memory_budget_mb must"):
            ClusterConfig(
                **self.CLUSTER, data_plane="mmap", memory_budget_mb=value
            ).validate()

    def test_service_takes_no_data_plane_mode(self):
        registry = TenantRegistry.from_mapping(self.REGISTRY)
        with pytest.raises(TypeError):
            PrivBasisService(registry, data_plane_mode="processes")
