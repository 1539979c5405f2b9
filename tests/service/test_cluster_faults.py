"""Fault-injection tests for the multi-process cluster.

Workers are killed with ``SIGKILL`` mid-traffic — no cleanup, the
honest crash — and every scenario checks the three cluster contracts:

* **The ledger invariant.**  Cluster-wide journaled spent ε
  (:func:`repro.store.read_spent_totals`) is always ≥ the ε of the
  releases clients actually received.  A crash may forfeit budget
  (a journaled debit whose answer never left), never mint it.
* **Clean failure, never a hang.**  Every request completes within the
  scenario timeout with either a 2xx or a typed
  :class:`~repro.errors.WorkerUnavailableError` (the router's 503) —
  assertions are timing-tolerant because where the kill lands relative
  to each in-flight request is genuinely racy.
* **Recovery.**  The supervisor restarts dead workers as fresh
  processes that recover from the shared store; post-fault traffic
  serves normally and acked ingest batches survive.

These tests spawn real worker processes, so they are tier-1 but
marked ``slow``; the heavier churn scenarios, up to 100k requests
over 4 workers, are ``soak`` (nightly, ``pytest -m soak``).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.datasets.synthetic import QUEST_LOADER_SPEC
from repro.errors import OverloadedError, WorkerUnavailableError
from repro.service import ClusterConfig, PrivBasisCluster, ServiceClient
from repro.store import read_spent_totals

#: Outer bound on one whole scenario — the "never hangs" assertion.
SCENARIO_TIMEOUT = 120.0

#: How long recovery may take before we call it a failure.
RECOVERY_TIMEOUT = 30.0

#: Hang bound of the 100k-request soak leg (~90 s on one core).
SOAK_TIMEOUT = 900.0


def make_config(state_dir, tenants, num_workers=2, max_inflight=8,
                data_plane="memory"):
    """A cluster config over the spawn-importable Quest loader."""
    return ClusterConfig(
        tenants=tenants,
        state_dir=str(state_dir),
        num_workers=num_workers,
        loader_spec=QUEST_LOADER_SPEC,
        max_inflight=max_inflight,
        data_plane=data_plane,
        memory_budget_mb=64 if data_plane == "mmap" else None,
    )


def run_scenario(coroutine, timeout=SCENARIO_TIMEOUT):
    """Run one async scenario under a hang bound."""
    return asyncio.run(asyncio.wait_for(coroutine, timeout))


async def wait_for_recovery(cluster, num_workers):
    """Block until every worker slot is back in routing."""
    deadline = asyncio.get_running_loop().time() + RECOVERY_TIMEOUT
    while cluster.router.healthy_count() < num_workers:
        assert asyncio.get_running_loop().time() < deadline, (
            f"cluster did not recover to {num_workers} workers within "
            f"{RECOVERY_TIMEOUT:g}s"
        )
        await asyncio.sleep(0.25)


@pytest.mark.slow
class TestKillMidRelease:
    def test_invariant_holds_and_errors_are_typed(self, tmp_path):
        tenants = {
            "t-rel": {"dataset": "faults/release", "epsilon_limit": 1e6}
        }
        config = make_config(tmp_path / "state", tenants)
        cluster = PrivBasisCluster(config)
        epsilon = 0.25

        async def scenario():
            async with cluster.serving() as (host, port):
                owner = cluster.router.owner_for("faults/release")
                assert owner is not None

                async def one_release(index):
                    async with ServiceClient(
                        host, port, tenant="t-rel"
                    ) as client:
                        try:
                            out = await client.release(
                                k=4, epsilon=epsilon
                            )
                            return ("ok", out)
                        except WorkerUnavailableError:
                            return ("unavailable", None)

                tasks = [
                    asyncio.create_task(one_release(index))
                    for index in range(8)
                ]
                await asyncio.sleep(0.05)
                cluster.kill_worker(owner.index)
                outcomes = await asyncio.gather(*tasks)

                acked = sum(
                    epsilon for tag, _ in outcomes if tag == "ok"
                )
                # Invariant immediately after the fault, read straight
                # from the shared journal files.
                totals = read_spent_totals(config.state_dir)
                assert totals.get("t-rel", 0.0) >= acked - 1e-9

                await wait_for_recovery(cluster, config.num_workers)
                async with ServiceClient(
                    host, port, tenant="t-rel"
                ) as client:
                    out = await client.release(k=4, epsilon=epsilon)
                    acked += epsilon
                    budget = await client.budget()
                    assert (
                        budget["ledger"]["spent"] >= acked - 1e-9
                    )
                return outcomes, acked

        outcomes, acked = run_scenario(scenario())
        # Every request resolved to a success or the typed 503 —
        # nothing hung, nothing surfaced as a raw socket error.
        assert {tag for tag, _ in outcomes} <= {"ok", "unavailable"}
        # Final invariant with the cluster stopped.
        totals = read_spent_totals(str(tmp_path / "state"))
        assert totals.get("t-rel", 0.0) >= acked - 1e-9

    def test_kill_of_idle_owner_leaves_routing_at_once(self, tmp_path):
        # With no request in flight nothing else can mark the slot
        # down, so only kill_worker itself can make the health count
        # (and with it wait_for_recovery) see the death.
        tenants = {
            "t-idle": {"dataset": "faults/idle", "epsilon_limit": 1e6}
        }
        config = make_config(tmp_path / "state", tenants)
        cluster = PrivBasisCluster(config)
        epsilon = 0.25

        async def scenario():
            async with cluster.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="t-idle"
                ) as client:
                    await client.release(k=4, epsilon=epsilon)
                owner = cluster.router.owner_for("faults/idle")
                cluster.kill_worker(owner.index)
                assert (
                    cluster.router.healthy_count()
                    == config.num_workers - 1
                )
                assert owner.index in cluster.router.down_indexes()

                await wait_for_recovery(cluster, config.num_workers)
                assert cluster.restarts == 1
                async with ServiceClient(
                    host, port, tenant="t-idle"
                ) as client:
                    await client.release(k=4, epsilon=epsilon)
                    budget = await client.budget()
                assert budget["ledger"]["spent"] >= 2 * epsilon - 1e-9
                totals = read_spent_totals(config.state_dir)
                assert totals.get("t-idle", 0.0) >= 2 * epsilon - 1e-9

        run_scenario(scenario())

    def test_get_fails_over_to_survivor(self, tmp_path):
        tenants = {
            "t-get": {"dataset": "faults/get", "epsilon_limit": 1e6}
        }
        config = make_config(tmp_path / "state", tenants)
        cluster = PrivBasisCluster(config)

        async def scenario():
            async with cluster.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="t-get"
                ) as client:
                    await client.release(k=4, epsilon=0.5)
                    owner = cluster.router.owner_for("faults/get")
                    cluster.kill_worker(owner.index)
                    # The budget read must answer from a survivor (the
                    # shared journal makes any worker authoritative)
                    # without waiting for the restart.
                    budget = await client.budget()
                    assert budget["ledger"]["spent"] >= 0.5 - 1e-9
                    health = await client.healthz()
                    assert health["role"] == "router"

        run_scenario(scenario())


@pytest.mark.slow
class TestKillMidIngest:
    def test_acked_batches_survive_the_kill(self, tmp_path):
        tenants = {
            "t-ing": {"dataset": "faults/ingest", "epsilon_limit": 1e6}
        }
        config = make_config(tmp_path / "state", tenants)
        cluster = PrivBasisCluster(config)

        async def scenario():
            async with cluster.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="t-ing"
                ) as client:
                    first = await client.ingest([[0, 1], [2, 3]])
                    assert first["snapshot_version"] == 1

                async def one_ingest(index):
                    async with ServiceClient(
                        host, port, tenant="t-ing"
                    ) as client:
                        try:
                            await client.ingest([[index % 8, 8]])
                            return "ok"
                        except WorkerUnavailableError:
                            return "unavailable"

                tasks = [
                    asyncio.create_task(one_ingest(index))
                    for index in range(6)
                ]
                await asyncio.sleep(0.02)
                owner = cluster.router.owner_for("faults/ingest")
                cluster.kill_worker(owner.index)
                outcomes = await asyncio.gather(*tasks)
                assert set(outcomes) <= {"ok", "unavailable"}
                acked = 1 + outcomes.count("ok")
                attempts = 1 + len(outcomes)

                await wait_for_recovery(cluster, config.num_workers)
                async with ServiceClient(
                    host, port, tenant="t-ing"
                ) as client:
                    snapshot = await client.snapshot()
                    # Every acknowledged batch was journal-before-apply
                    # + fsync, so recovery must replay at least those;
                    # a killed-before-ack batch may legitimately also
                    # have landed (journaled, never answered).
                    assert (
                        acked
                        <= snapshot["snapshot_version"]
                        <= attempts
                    )
                    # The recovered log keeps extending linearly.
                    after = await client.ingest([[4, 5]])
                    assert (
                        after["snapshot_version"]
                        == snapshot["snapshot_version"] + 1
                    )

        run_scenario(scenario())


@pytest.mark.slow
class TestClusterColdStart:
    def test_one_build_many_clients_distinct_noise(self, tmp_path):
        clients = 6
        tenants = {
            "t-co": {"dataset": "faults/coalesce", "epsilon_limit": 1e6}
        }
        config = make_config(
            tmp_path / "state", tenants, num_workers=3
        )
        cluster = PrivBasisCluster(config)

        async def scenario():
            async with cluster.serving() as (host, port):

                async def one_release(index):
                    async with ServiceClient(
                        host, port, tenant="t-co"
                    ) as client:
                        return await client.release(k=6, epsilon=0.5)

                outs = await asyncio.gather(
                    *(one_release(index) for index in range(clients))
                )
                async with ServiceClient(host, port) as client:
                    metrics = await client.metrics()
                return outs, metrics

        outs, metrics = run_scenario(scenario())
        # Dataset affinity + the owner's coalescer: the cold dataset
        # was built exactly once across the whole cluster.
        started = sum(
            worker["coalescer"]["started"]
            for worker in metrics["workers"].values()
            if "coalescer" in worker
        )
        assert started == 1
        # Every client paid its own ε and got its own noise: the
        # payloads are pairwise distinct even for identical requests.
        payloads = [
            json.dumps(out["itemsets"], sort_keys=True) for out in outs
        ]
        assert len(set(payloads)) == len(payloads)
        totals = read_spent_totals(str(tmp_path / "state"))
        assert totals.get("t-co", 0.0) >= clients * 0.5 - 1e-9


@pytest.mark.slow
class TestMmapPlaneCluster:
    """Tier-1 leg of the out-of-core cluster story: workers spill
    their datasets to mmap segments under the shared state dir, a
    kill loses nothing, and the restarted worker re-spills and
    serves — same ledger invariant, same recovery contract."""

    def test_kill_and_recover_on_the_mmap_plane(self, tmp_path):
        tenants = {
            "t-mm": {"dataset": "faults/mmap", "epsilon_limit": 1e6}
        }
        config = make_config(
            tmp_path / "state", tenants, data_plane="mmap"
        )
        cluster = PrivBasisCluster(config)
        epsilon = 0.25

        async def scenario():
            acked = 0.0
            async with cluster.serving() as (host, port):
                async with ServiceClient(
                    host, port, tenant="t-mm"
                ) as client:
                    await client.release(k=4, epsilon=epsilon)
                    acked = epsilon
                    await client.ingest([[1, 2], [0, 3]])
                    owner = cluster.router.owner_for("faults/mmap")
                    cluster.kill_worker(owner.index)
                    await wait_for_recovery(
                        cluster, config.num_workers
                    )
                # The revived worker re-spills the dataset and
                # replays the acked ingest through the mmap
                # backend's extend path.  The router never replays a
                # POST, so the first attempt may legitimately eat a
                # stale pooled connection the kill tore — tolerate
                # the typed 503 and retry once.
                out = None
                for _ in range(3):
                    async with ServiceClient(
                        host, port, tenant="t-mm"
                    ) as client:
                        try:
                            out = await client.release(
                                k=4, epsilon=epsilon
                            )
                            acked += epsilon
                            break
                        except WorkerUnavailableError:
                            await asyncio.sleep(0.2)
                assert out is not None, "release never recovered"
                assert out["snapshot_version"] >= 1
                totals = read_spent_totals(config.state_dir)
                assert totals.get("t-mm", 0.0) >= acked - 1e-9
            return acked

        acked = run_scenario(scenario())
        totals = read_spent_totals(str(tmp_path / "state"))
        assert totals.get("t-mm", 0.0) >= acked - 1e-9


@pytest.mark.soak
class TestClusterChurnSoak:
    """Nightly-tier churn: sustained mixed traffic under repeated
    kills, with the ledger invariant checked after every fault — on
    both data planes (the ``mmap`` leg kills workers that spilled
    their datasets to disk, so recovery also re-spills)."""

    @pytest.mark.parametrize("data_plane", ["memory", "mmap"])
    def test_sustained_churn_keeps_the_invariant(
        self, tmp_path, data_plane
    ):
        tenant_ids = [f"soak-{index}" for index in range(4)]
        tenants = {
            tenant: {
                "dataset": f"soak/{index % 2}",
                "epsilon_limit": 1e6,
            }
            for index, tenant in enumerate(tenant_ids)
        }
        config = make_config(
            tmp_path / "state", tenants, num_workers=3,
            max_inflight=32, data_plane=data_plane,
        )
        cluster = PrivBasisCluster(config)
        epsilon = 0.05

        async def scenario():
            acked = {tenant: 0.0 for tenant in tenant_ids}
            async with cluster.serving() as (host, port):
                for round_index in range(4):
                    async def one(tenant, index):
                        async with ServiceClient(
                            host, port, tenant=tenant
                        ) as client:
                            try:
                                if index % 5 == 0:
                                    await client.ingest([[index % 9]])
                                    return (tenant, 0.0)
                                await client.release(
                                    k=3, epsilon=epsilon
                                )
                                return (tenant, epsilon)
                            except WorkerUnavailableError:
                                return (tenant, 0.0)

                    tasks = [
                        asyncio.create_task(
                            one(tenant_ids[index % 4], index)
                        )
                        for index in range(24)
                    ]
                    await asyncio.sleep(0.05)
                    cluster.kill_worker(round_index % 3)
                    for tenant, spent in await asyncio.gather(*tasks):
                        acked[tenant] += spent
                    totals = read_spent_totals(config.state_dir)
                    for tenant in tenant_ids:
                        assert (
                            totals.get(tenant, 0.0)
                            >= acked[tenant] - 1e-9
                        ), f"round {round_index}: {tenant} under-counted"
                    await wait_for_recovery(
                        cluster, config.num_workers
                    )
            return acked

        acked = run_scenario(scenario())
        totals = read_spent_totals(str(tmp_path / "state"))
        for tenant, spent in acked.items():
            assert totals.get(tenant, 0.0) >= spent - 1e-9

    @pytest.mark.parametrize(
        "workers, requests, kills", [(4, 100_000, 3)], ids=["4w-100k"]
    )
    def test_analyst_mix_at_scale_keeps_the_invariant(
        self, tmp_path, workers, requests, kills
    ):
        """16 clients over 8 tenants on 4 datasets send 10 % releases,
        2 % ingests, 5 % budget reads and 83 % snapshot reads; at
        evenly spaced points the owner of a live dataset is killed."""
        tenants = {
            f"soak-{index}": {
                "dataset": f"soak/{index % 4}",
                "epsilon_limit": 1e9,
            }
            for index in range(8)
        }
        config = make_config(
            tmp_path / "state", tenants, num_workers=workers,
            max_inflight=32,
        )
        cluster = PrivBasisCluster(config)
        epsilon = 1e-4
        acked = {tenant: 0.0 for tenant in tenants}
        issued = 0

        def check_invariant():
            floor = dict(acked)  # snapshot before reading the journal
            totals = read_spent_totals(config.state_dir)
            for tenant, spent in floor.items():
                assert totals.get(tenant, 0.0) >= spent - 1e-9, tenant

        async def one(client, index):
            tenant = f"soak-{index % 8}"
            bucket = index % 1000
            try:
                if bucket < 100:
                    await client.release(
                        k=3, epsilon=epsilon, tenant=tenant
                    )
                    acked[tenant] += epsilon
                elif bucket < 120:
                    await client.ingest([[index % 9, 9]], tenant=tenant)
                elif bucket < 170:
                    await client.budget(tenant=tenant)
                else:
                    await client.snapshot(tenant=tenant)
            except (WorkerUnavailableError, OverloadedError):
                pass

        async def scenario():
            async with cluster.serving() as (host, port):

                async def client_loop():
                    nonlocal issued
                    async with ServiceClient(host, port) as client:
                        while issued < requests:
                            issued += 1
                            await one(client, issued - 1)

                async def fault_injector():
                    for number in range(kills):
                        while issued < requests * (number + 1) // (
                            kills + 1
                        ):
                            await asyncio.sleep(0.05)
                        owner = cluster.router.owner_for(
                            f"soak/{number % 4}"
                        )
                        cluster.kill_worker(
                            number % workers if owner is None
                            else owner.index
                        )
                        await asyncio.sleep(0.2)
                        check_invariant()

                await asyncio.gather(
                    fault_injector(),
                    *(client_loop() for _ in range(16)),
                )

        run_scenario(scenario(), timeout=SOAK_TIMEOUT)
        check_invariant()  # the journal alone, with the cluster stopped
