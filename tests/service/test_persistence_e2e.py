"""End-to-end restart test for the durable service (the acceptance
scenario for persistence):

    serve → spend ε across two tenants → ingest a delta → kill the
    process → restart with the same ``--state-dir`` → ledgers,
    snapshot_version, and stored results match the pre-crash state,
    and an over-limit tenant still gets 403.

"Kill" is modeled by abandoning the first service instance without
any graceful state flush — every durable guarantee must come from the
write-ahead discipline alone, which is exactly what a ``kill -9``
leaves behind (the OS keeps flushed file contents of a dead process).
A second instance then recovers from the same directory.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.datasets.transactions import TransactionDatabase
from repro.errors import BudgetExceededError, ValidationError
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


def make_service(state_dir) -> PrivBasisService:
    registry = TenantRegistry.from_mapping(
        {
            "alice": {"dataset": DATASET, "epsilon_limit": 3.0},
            "bob": {"dataset": DATASET, "epsilon_limit": 1.0},
        }
    )
    return PrivBasisService(
        registry,
        dataset_loader=lambda name: small_database(),
        state_dir=str(state_dir),
    )


class TestRestartRecovery:
    def test_full_crash_restart_scenario(self, tmp_path):
        state_dir = tmp_path / "state"

        async def before_crash():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    first = await c.release(k=8, epsilon=0.5)
                    await c.ingest([[0, 1, 2], [3, 4]])
                    second = await c.release(k=8, epsilon=0.25)
                    await c.release(k=5, epsilon=0.9, tenant="bob")
                    alice = await c.budget()
                    bob = await c.budget(tenant="bob")
                    results = await c.results()
                    snapshot = await c.snapshot()
            # No graceful flush beyond serving: the context exit
            # closes sockets, and WAL durability already happened
            # per-request.  The instance is now "killed".
            return first, second, alice, bob, results, snapshot

        first, second, alice, bob, results, snapshot = asyncio.run(
            before_crash()
        )
        assert first["snapshot_version"] == 0
        assert second["snapshot_version"] == 1

        async def after_restart():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    health = await c.healthz()
                    snapshot = await c.snapshot()  # builds the session
                    alice = await c.budget()
                    bob = await c.budget(tenant="bob")
                    results = await c.results()
                    health_warm = await c.healthz()
                    metrics = await c.metrics()
                    # bob's (5, 0.5) is dominated by its own stored
                    # (5, 0.9) release: the recovered reuse plane
                    # serves it by post-processing at ε = 0 — no
                    # refusal, no charge, even with only 0.1 left.
                    reused = await c.release(
                        k=5, epsilon=0.5, tenant="bob"
                    )
                    # An *uncovered* over-limit request (k wider than
                    # anything bob stored) must still run fresh and be
                    # refused after recovery.
                    with pytest.raises(BudgetExceededError) as info:
                        await c.release(k=6, epsilon=0.5, tenant="bob")
                    # A release that fits still works, on the
                    # recovered snapshot.
                    third = await c.release(k=8, epsilon=0.25)
            return (
                health, snapshot, alice, bob, results, health_warm,
                metrics, reused, info.value, third,
            )

        (
            health, snapshot2, alice2, bob2, results2, health_warm,
            metrics, reused, refusal, third,
        ) = asyncio.run(after_restart())

        # -- ledgers match pre-crash state exactly ---------------------
        assert alice2["ledger"]["spent"] == pytest.approx(
            alice["ledger"]["spent"]
        ) == pytest.approx(0.75)
        assert bob2["ledger"]["spent"] == pytest.approx(
            bob["ledger"]["spent"]
        ) == pytest.approx(0.9)
        assert [
            entry["epsilon"] for entry in alice2["ledger"]["entries"]
        ] == [
            entry["epsilon"] for entry in alice["ledger"]["entries"]
        ]

        # -- the data came back at the pre-crash version ---------------
        assert snapshot2["snapshot_version"] == (
            snapshot["snapshot_version"]
        ) == 1
        assert snapshot2["num_transactions"] == (
            snapshot["num_transactions"]
        ) == 202

        # -- stored results match pre-crash, bit for bit ---------------
        assert results2["results"] == results["results"]
        assert len(results2["results"]) == 2  # alice's two releases
        assert [
            entry["snapshot_version"] for entry in results2["results"]
        ] == [0, 1]

        # -- recovery is reported on /healthz --------------------------
        persistence = health["persistence"]
        assert persistence["enabled"] is True
        assert persistence["recovery"]["tenants"] == {
            "alice": pytest.approx(0.75),
            "bob": pytest.approx(0.9),
        }
        assert persistence["recovery"]["results"] == 3
        assert persistence["recovery"]["torn_records"] == 0
        # Dataset replay is lazy: visible once the session is warm.
        assert health_warm["persistence"]["recovery"]["datasets"] == {
            DATASET: 1
        }

        # -- serving counters were rehydrated, not recounted ----------
        stats = metrics["datasets"][DATASET]
        assert stats["num_releases"] == 3  # 2 alice + 1 bob, pre-crash
        assert stats["epsilon_spent"] == pytest.approx(1.65)

        # -- reuse sources survived the crash: bob's dominated request
        #    was answered from its stored release, free ---------------
        assert reused["reuse"]["hit"] is True
        assert reused["reuse"]["epsilon_charged"] == 0.0
        assert reused["reuse"]["source"]["k"] == 5
        # -- over-limit tenant still refused, same structured error ----
        assert refusal.remaining == pytest.approx(0.1)
        # -- and the recovered service keeps serving -------------------
        assert third["snapshot_version"] == 1

    def test_recovered_spends_compose_across_restarts(self, tmp_path):
        # alice spends 2.0 before the crash and has 1.0 left; a
        # post-restart attempt to spend 1.5 must fail even though a
        # fresh in-memory ledger would have allowed it.  This is the
        # exact attack a restart-resets-the-ledger bug enables.  The
        # post-restart request widens k so the recovered reuse plane
        # cannot (correctly) serve it free from the stored release.
        state_dir = tmp_path / "state"

        async def run_one(k, epsilon, expect_refusal):
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    if expect_refusal:
                        with pytest.raises(BudgetExceededError):
                            await c.release(k=k, epsilon=epsilon)
                    else:
                        await c.release(k=k, epsilon=epsilon)
                    return await c.budget()

        before = asyncio.run(run_one(5, 2.0, expect_refusal=False))
        assert before["ledger"]["spent"] == pytest.approx(2.0)
        after = asyncio.run(run_one(6, 1.5, expect_refusal=True))
        # The refused attempt charged nothing; the journal still holds
        # exactly the pre-restart spend.
        assert after["ledger"]["spent"] == pytest.approx(2.0)

    def test_results_endpoint_requires_persistence(self, tmp_path):
        async def scenario():
            registry = TenantRegistry.from_mapping(
                {"alice": {"dataset": DATASET, "epsilon_limit": 1.0}}
            )
            service = PrivBasisService(
                registry, dataset_loader=lambda name: small_database()
            )
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    health = await c.healthz()
                    with pytest.raises(ValidationError, match="state-dir"):
                        await c.results()
            return health

        health = asyncio.run(scenario())
        assert health["persistence"] == {"enabled": False}

    def test_rejected_ingest_leaves_store_and_session_aligned(
        self, tmp_path
    ):
        # An out-of-vocabulary batch must answer 400 with *neither*
        # the session nor the dataset log advanced — journal-before-
        # apply with up-front validation — so later good ingests keep
        # working and survive a restart at the right version.
        state_dir = tmp_path / "state"

        async def first_run():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    with pytest.raises(ValidationError):
                        await c.ingest([[999]])  # outside |I| = 15
                    ok = await c.ingest([[0, 1]])
                    return ok

        ok = asyncio.run(first_run())
        assert ok["snapshot_version"] == 1

        async def second_run():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    snapshot = await c.snapshot()
                    again = await c.ingest([[2, 3]])
            return snapshot, again

        snapshot, again = asyncio.run(second_run())
        assert snapshot["snapshot_version"] == 1
        assert snapshot["num_transactions"] == 201
        assert again["snapshot_version"] == 2

    def test_results_stay_ordered_across_midrun_compaction(
        self, tmp_path
    ):
        # Regression: ``ServiceClient.results()`` returned entries out
        # of release order after a WAL compaction mid-run, because
        # ordering leaned on WAL frame numbers and ``rewrite()``
        # renumbers frames from zero.  Each record now embeds its own
        # release sequence and ``results_for`` sorts by it.
        state_dir = tmp_path / "state"

        async def scenario():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    await c.release(k=8, epsilon=0.5)
                    await c.release(k=9, epsilon=0.4)
                    # Mid-run maintenance compaction renumbers frames.
                    service.store.results.compact()
                    await c.release(k=10, epsilon=0.3)
                    live = await c.results()

            reborn = make_service(state_dir)
            async with reborn.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    recovered = await c.results()
            return live, recovered

        live, recovered = asyncio.run(scenario())
        assert [e["payload"]["k"] for e in live["results"]] == [8, 9, 10]
        assert recovered["results"] == live["results"]
        assert [e["seq"] for e in recovered["results"]] == sorted(
            e["seq"] for e in recovered["results"]
        )

    def test_results_sorted_by_seq_not_wal_order(self, tmp_path):
        # The store must not trust WAL frame order at all: a WAL whose
        # frames were rewritten out of release order (e.g. a compactor
        # grouping records by dataset) still replays into a
        # seq-ordered history.
        from repro.store.results import ResultStore

        store = ResultStore(tmp_path)
        for k in (8, 9, 10):
            store.record(
                "alice", "d", 0, {"k": k, "epsilon": 0.5, "itemsets": []}
            )
        store.sync()
        records = list(store._wal.replay())
        store._wal.rewrite(list(reversed(records)))
        store.close()

        reloaded = ResultStore(tmp_path)
        assert [
            entry["payload"]["k"]
            for entry in reloaded.results_for("alice")
        ] == [8, 9, 10]
        # New records keep extending the sequence past the maximum.
        reloaded.record(
            "alice", "d", 0, {"k": 11, "epsilon": 0.5, "itemsets": []}
        )
        assert [
            entry["seq"] for entry in reloaded.results_for("alice")
        ] == [0, 1, 2, 3]

    def test_torn_ledger_tail_is_reported_and_dropped(self, tmp_path):
        state_dir = tmp_path / "state"

        async def spend_once():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    await c.release(k=5, epsilon=0.5)

        asyncio.run(spend_once())
        # Crash damage: a partial record at the end of the ledger WAL.
        with open(state_dir / "ledger.wal", "ab") as handle:
            handle.write(b'{"seq":99,"crc":1,"payl')

        async def restart():
            service = make_service(state_dir)
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    health = await c.healthz()
                    budget = await c.budget()
            return health, budget

        health, budget = asyncio.run(restart())
        assert health["persistence"]["recovery"]["torn_records"] == 1
        # The intact prefix survived untouched.
        assert budget["ledger"]["spent"] == pytest.approx(0.5)


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_clean_stop_removes_the_mmap_spill_leaf(
    tmp_path, monkeypatch, durable
):
    """Nothing reopens a per-build spill directory, so a clean stop
    removes it; a state dir keeps its WALs."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    state_dir = tmp_path / "state" if durable else None
    rows = [list(row) for row in small_database().rows] * 15
    service = PrivBasisService(
        TenantRegistry.from_mapping(
            {"alice": {"dataset": DATASET, "epsilon_limit": 3.0}}
        ),
        dataset_loader=lambda name: TransactionDatabase(rows, num_items=15),
        state_dir=None if state_dir is None else str(state_dir),
        data_plane="mmap",
        shard_size=1000,
    )
    spill_root = (
        state_dir / "shards" if durable else tmp_path / "tmp" / "repro-shards"
    )

    async def scenario():
        async with service.serving() as (host, port):
            async with ServiceClient(host, port, tenant="alice") as client:
                await client.release(k=5, epsilon=0.5)
            (leaf,) = (spill_root / DATASET).iterdir()
            assert len(list(leaf.glob("*.seg"))) == 3
        return leaf

    leaf = asyncio.run(scenario())
    assert not leaf.exists()
    if durable:
        assert (state_dir / "ledger.wal").stat().st_size > 0
        assert (state_dir / "results.wal").stat().st_size > 0


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_restarted_mmap_service_rebuilds_its_sessions(
    tmp_path, monkeypatch, durable
):
    """stop() closes the sessions whose spill it removes and forgets
    them, so serving again rebuilds them rather than answering 500
    from a closed shard store."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    state_dir = tmp_path / "state" if durable else None
    service = PrivBasisService(
        TenantRegistry.from_mapping(
            {"alice": {"dataset": DATASET, "epsilon_limit": 3.0}}
        ),
        dataset_loader=lambda name: small_database(),
        state_dir=None if state_dir is None else str(state_dir),
        data_plane="mmap",
        shard_size=50,
    )

    async def scenario():
        answers = []
        for _ in range(2):
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    answers.append(await c.release(k=5, epsilon=0.5))
                    budget = await c.budget()
        return answers, budget

    answers, budget = asyncio.run(scenario())
    assert [answer["k"] for answer in answers] == [5, 5]
    assert budget["ledger"]["spent"] == pytest.approx(1.0)


def test_restarted_memory_mmap_service_forgets_lost_ingests(
    tmp_path, monkeypatch
):
    """Without a state dir an mmap session's ingested rows go with its
    spill at stop(): the restarted session serves the base data as
    version 0 again, and the next ingest gets a version past the
    dataset log's watermark, so no snapshot version (reuse hits
    included) names two data states."""
    import tempfile

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    service = PrivBasisService(
        TenantRegistry.from_mapping(
            {"alice": {"dataset": DATASET, "epsilon_limit": 3.0}}
        ),
        dataset_loader=lambda name: small_database(),
        data_plane="mmap",
        shard_size=50,
    )

    async def scenario():
        async with service.serving() as (host, port):
            async with ServiceClient(host, port, tenant="alice") as c:
                await c.ingest([[0, 1]])
                stored = await c.release(k=5, epsilon=0.5)
        async with service.serving() as (host, port):
            async with ServiceClient(host, port, tenant="alice") as c:
                restarted = await c.snapshot()
                await c.ingest([[2, 3], [4]])
                ingested = await c.snapshot()
                dominated = await c.release(k=3, epsilon=0.25)
        return stored, restarted, ingested, dominated

    stored, restarted, ingested, dominated = asyncio.run(scenario())
    assert stored["snapshot_version"] == 1
    assert restarted["snapshot_version"] == 0
    assert restarted["num_transactions"] == 200
    # Version 1 named the lost data state; it is never handed out again.
    assert ingested["snapshot_version"] == 2
    assert ingested["num_transactions"] == 202
    # The release stored at the lost version 1 answers for no other.
    assert dominated["reuse"]["hit"] is False
    assert dominated["snapshot_version"] == 2


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_every_budget_read_is_the_one_journal(tmp_path, durable):
    """/v1/budget, Tenant.spent, /v1/plan and /metrics read the same
    ledger, with or without a state dir; a durable one reads the same
    after a restart."""
    state_dir = str(tmp_path / "state") if durable else None

    def build():
        return PrivBasisService(
            TenantRegistry.from_mapping(
                {"alice": {"dataset": DATASET, "epsilon_limit": 2.0}}
            ),
            dataset_loader=lambda name: small_database(),
            state_dir=state_dir,
        )

    async def views(service, c):
        budget = await c.budget()
        plan = await c.plan(k=5, epsilon=0.1)
        metrics = await c.metrics()
        return {
            "entries": len(budget["ledger"]["entries"]),
            "budget_spent": budget["ledger"]["spent"],
            "tenant_spent": service.registry.get("alice").spent,
            "metrics_spent": (
                metrics["store"]["ledger"]["tenants"]["alice"]["spent"]
            ),
            "budget_remaining": budget["ledger"]["remaining"],
            "plan_remaining": plan["remaining"],
        }

    async def scenario():
        service = build()
        async with service.serving() as (host, port):
            async with ServiceClient(host, port, tenant="alice") as c:
                await c.release(k=5, epsilon=0.5)
                await c.release(k=8, epsilon=0.25)
                await c.release_batch(
                    [{"k": 5, "epsilon": 0.3}, {"k": 3, "epsilon": 0.2}]
                )
                with pytest.raises(BudgetExceededError):
                    await c.release(k=5, epsilon=1.0)
                before = await views(service, c)
        if not durable:
            return before, None
        service = build()
        async with service.serving() as (host, port):
            async with ServiceClient(host, port, tenant="alice") as c:
                after = await views(service, c)
        return before, after

    before, after = asyncio.run(scenario())
    assert before["entries"] == 4
    for key in ("budget_spent", "tenant_spent", "metrics_spent"):
        assert before[key] == pytest.approx(1.25), key
    assert before["budget_remaining"] == pytest.approx(0.75)
    assert before["plan_remaining"] == before["budget_remaining"]
    if durable:
        assert after == pytest.approx(before)


def test_restarted_memory_service_keeps_ingested_rows():
    """A memory-plane session survives stop(): without a state dir
    nothing could replay its ingests into a rebuilt one."""
    service = PrivBasisService(
        TenantRegistry.from_mapping(
            {"alice": {"dataset": DATASET, "epsilon_limit": 3.0}}
        ),
        dataset_loader=lambda name: small_database(),
    )

    async def scenario():
        snapshots = []
        for batch in ([[0, 1]], [[2, 3]]):
            async with service.serving() as (host, port):
                async with ServiceClient(host, port, tenant="alice") as c:
                    await c.ingest(batch)
                    snapshots.append(await c.snapshot())
        return snapshots

    first, second = asyncio.run(scenario())
    assert first["snapshot_version"] == 1
    assert second["snapshot_version"] == 2
    assert second["num_transactions"] == first["num_transactions"] + 1


def test_failed_apply_after_journal_rebuilds_from_the_log(
    tmp_path, monkeypatch
):
    """An ingest whose batch was journaled but never reached the
    session (here: an injected extend failure) must not leave the
    session serving later versions without that batch: the session is
    dropped and rebuilt from the log, so the live data state at every
    version is the one a restart replays."""
    from repro.engine.cache import CachedBackend

    real_extend = CachedBackend.extend
    failures = []

    def extend_failing_once(self, delta):
        if not failures:
            failures.append(delta)
            raise OSError("injected extend failure")
        return real_extend(self, delta)

    async def scenario():
        service = make_service(tmp_path)
        await service.handle_snapshot("alice")
        monkeypatch.setattr(CachedBackend, "extend", extend_failing_once)
        with pytest.raises(OSError):
            await service.handle_ingest(
                {"tenant": "alice", "transactions": [[3]]}
            )
        await service.handle_ingest(
            {"tenant": "alice", "transactions": [[3, 4]]}
        )
        live = await service.handle_snapshot("alice")
        monkeypatch.setattr(CachedBackend, "extend", real_extend)
        await service.stop()
        restarted = make_service(tmp_path)
        replayed = await restarted.handle_snapshot("alice")
        await restarted.stop()
        return live, replayed

    live, replayed = asyncio.run(scenario())
    assert live["snapshot_version"] == replayed["snapshot_version"] == 2
    assert live["num_transactions"] == replayed["num_transactions"] == 202


class TestQueuedBehindFailedIngest:
    """A request queued on the dataset lock behind an ingest that fails
    after journaling runs on the session rebuilt from the log, not on
    the session the failure dropped (which lacks the journaled batch)."""

    @staticmethod
    def run_queued(tmp_path, monkeypatch, queued):
        from repro.engine.cache import CachedBackend

        real_extend = CachedBackend.extend
        failures = []

        def extend_failing_once(self, delta):
            if not failures:
                failures.append(delta)
                raise OSError("injected extend failure")
            return real_extend(self, delta)

        async def scenario():
            service = make_service(tmp_path)
            await service.handle_snapshot("alice")
            monkeypatch.setattr(CachedBackend, "extend", extend_failing_once)
            failed, answer = await asyncio.gather(
                service.handle_ingest(
                    {"tenant": "alice", "transactions": [[3]]}
                ),
                queued(service),
                return_exceptions=True,
            )
            monkeypatch.setattr(CachedBackend, "extend", real_extend)
            await service.stop()
            return failed, answer

        failed, answer = asyncio.run(scenario())
        assert isinstance(failed, OSError)
        return answer

    def test_queued_ingest_numbers_on_the_journaled_data(
        self, tmp_path, monkeypatch
    ):
        answer = self.run_queued(
            tmp_path, monkeypatch,
            lambda service: service.handle_ingest(
                {"tenant": "alice", "transactions": [[3, 4]]}
            ),
        )
        assert answer["snapshot_version"] == 2
        assert answer["num_transactions"] == 202

    def test_queued_release_runs_on_the_journaled_data(
        self, tmp_path, monkeypatch
    ):
        answer = self.run_queued(
            tmp_path, monkeypatch,
            lambda service: service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 0.5}
            ),
        )
        assert answer["snapshot_version"] == 1

    def test_queued_snapshot_reads_the_journaled_data(
        self, tmp_path, monkeypatch
    ):
        answer = self.run_queued(
            tmp_path, monkeypatch,
            lambda service: service.handle_snapshot("alice"),
        )
        assert answer["snapshot_version"] == 1
        assert answer["num_transactions"] == 201
