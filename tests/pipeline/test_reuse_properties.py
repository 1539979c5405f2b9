"""DP-soundness property suite for the cross-release reuse plane.

Four families of properties over randomized ``(k, ε, k', ε',
snapshot)`` schedules (generators in ``tests/pipeline/strategies.py``;
example budget widens under ``REPRO_PROPERTY_PROFILE=nightly``):

1. **Purity** — a reuse answer is a pure function of the stored
   payload: repeats are bit-identical and zero backend queries run (a
   *sealed* backend — one that raises on any data access — still
   answers hits).
2. **Accounting** — the ledger debits exactly 0 on a hit and exactly
   the planned ε on a miss; ε saved is tallied, never spent.
3. **Scoping** — reuse never crosses a snapshot version or a tenant
   boundary (at the service/store).
4. **Invalidation** — an interleaved ingest invalidates exactly the
   stale entries: earlier-version entries of that dataset drop, the
   live version and other datasets survive, and the reported drop
   count is exact.

Plus golden rows pinning :func:`top_k_truncate` outputs — including
that a reuse-served ``(k', ε')`` equals the truncation of the stored
release.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.engine.bitmap import BitmapBackend
from repro.errors import ValidationError
from repro.pipeline import (
    ReuseIndex,
    reuse_covers,
    top_k_truncate,
)
from repro.service.app import PrivBasisService
from repro.service.registry import TenantRegistry
from tests.pipeline.strategies import (
    SealableBackend,
    epsilons,
    ks,
    request_pairs,
)

# ---------------------------------------------------------------------------
# The utility bound: reuse_covers
# ---------------------------------------------------------------------------


class TestReuseCovers:
    @given(request_pairs())
    def test_identical_request_is_never_covered(self, pair):
        k, epsilon = pair
        assert not reuse_covers(k, epsilon, k, epsilon)

    @given(request_pairs(), ks(), epsilons())
    def test_hit_implies_dominated_and_not_identical(
        self, stored, k, epsilon
    ):
        stored_k, stored_eps = stored
        if reuse_covers(stored_k, stored_eps, k, epsilon):
            assert k <= stored_k
            assert epsilon <= stored_eps * (1 + 1e-9)
            assert (k, epsilon) != (stored_k, stored_eps)

    @given(request_pairs(), st.integers(min_value=1, max_value=50))
    def test_wider_k_is_never_covered(self, stored, extra):
        stored_k, stored_eps = stored
        assert not reuse_covers(
            stored_k, stored_eps, stored_k + extra, stored_eps
        )

    @given(request_pairs(), st.floats(min_value=0.01, max_value=2.0))
    def test_larger_epsilon_is_never_covered(self, stored, extra):
        stored_k, stored_eps = stored
        assert not reuse_covers(
            stored_k, stored_eps, stored_k, stored_eps + extra
        )

    @given(request_pairs())
    def test_strict_domination_is_covered(self, stored):
        stored_k, stored_eps = stored
        assume(stored_k > 1)
        assert reuse_covers(
            stored_k, stored_eps, stored_k - 1, stored_eps / 2
        )

    @given(request_pairs())
    def test_degenerate_requests_are_never_covered(self, stored):
        stored_k, stored_eps = stored
        assert not reuse_covers(stored_k, stored_eps, 0, stored_eps)
        assert not reuse_covers(stored_k, stored_eps, stored_k, 0.0)
        assert not reuse_covers(stored_k, stored_eps, stored_k, -1.0)

    def test_last_ulp_epsilon_counts_as_identical(self):
        # Wire round-trips can wobble ε in the last ulp; that must
        # still be the freshness carve-out, not a reuse hit.
        eps = 0.7
        assert not reuse_covers(10, eps, 10, eps * (1 + 1e-12))
        assert not reuse_covers(10, eps, 10, eps * (1 - 1e-12))


# ---------------------------------------------------------------------------
# The post-processor: top_k_truncate
# ---------------------------------------------------------------------------

GOLDEN_PAYLOAD = {
    "method": "privbasis",
    "k": 4,
    "epsilon": 1.0,
    "itemsets": [
        {"items": [2], "noisy_count": 80.0, "noisy_frequency": 0.8},
        {"items": [0, 1], "noisy_count": 95.0, "noisy_frequency": 0.95},
        {"items": [3], "noisy_count": 80.0, "noisy_frequency": 0.8},
        {"items": [5], "noisy_count": 10.0, "noisy_frequency": 0.1},
    ],
    "snapshot_version": 7,
}


class TestTopKTruncate:
    def test_golden_row(self):
        # Pinned output: re-ranked by noisy frequency, frequency ties
        # broken on the item tuple ([2] before [3]), truncated to 2,
        # (k, ε) re-stamped, snapshot preserved, stats verbatim.
        assert top_k_truncate(GOLDEN_PAYLOAD, 2, 0.25) == {
            "method": "privbasis",
            "k": 2,
            "epsilon": 0.25,
            "itemsets": [
                {
                    "items": [0, 1],
                    "noisy_count": 95.0,
                    "noisy_frequency": 0.95,
                },
                {"items": [2], "noisy_count": 80.0, "noisy_frequency": 0.8},
            ],
            "snapshot_version": 7,
        }

    def test_rejects_k_beyond_stored(self):
        with pytest.raises(ValidationError):
            top_k_truncate(GOLDEN_PAYLOAD, 5, 0.5)

    def test_rejects_malformed_request(self):
        with pytest.raises(ValidationError):
            top_k_truncate(GOLDEN_PAYLOAD, 0, 0.5)
        with pytest.raises(ValidationError):
            top_k_truncate(GOLDEN_PAYLOAD, True, 0.5)
        with pytest.raises(ValidationError):
            top_k_truncate(GOLDEN_PAYLOAD, 2, 0.0)

    def test_does_not_mutate_the_stored_payload(self):
        import copy

        snapshot = copy.deepcopy(GOLDEN_PAYLOAD)
        top_k_truncate(GOLDEN_PAYLOAD, 2, 0.25)
        assert GOLDEN_PAYLOAD == snapshot

    @given(st.integers(min_value=1, max_value=4), epsilons())
    def test_bit_identical_across_calls(self, k, epsilon):
        first = top_k_truncate(GOLDEN_PAYLOAD, k, epsilon)
        second = top_k_truncate(GOLDEN_PAYLOAD, k, epsilon)
        assert first == second

    @given(st.integers(min_value=1, max_value=4), epsilons())
    def test_idempotent(self, k, epsilon):
        once = top_k_truncate(GOLDEN_PAYLOAD, k, epsilon)
        twice = top_k_truncate(once, k, epsilon)
        assert once == twice

    @given(st.integers(min_value=1, max_value=4), epsilons())
    def test_output_is_sorted_and_sized(self, k, epsilon):
        out = top_k_truncate(GOLDEN_PAYLOAD, k, epsilon)
        assert len(out["itemsets"]) == k
        frequencies = [
            entry["noisy_frequency"] for entry in out["itemsets"]
        ]
        assert frequencies == sorted(frequencies, reverse=True)
        assert out["k"] == k and out["epsilon"] == float(epsilon)


# ---------------------------------------------------------------------------
# The index: dominance frontier, bounds, exact invalidation
# ---------------------------------------------------------------------------


def _release_payload(k, epsilon):
    return {
        "method": "privbasis",
        "k": k,
        "epsilon": epsilon,
        "itemsets": [
            {
                "items": [i],
                "noisy_count": float(k - i),
                "noisy_frequency": (k - i) / k,
            }
            for i in range(k)
        ],
    }


class TestReuseIndex:
    @given(st.lists(request_pairs(), min_size=1, max_size=12))
    def test_frontier_holds_no_dominated_pairs(self, stored):
        index = ReuseIndex()
        for k, epsilon in stored:
            index.add("d", 0, _release_payload(k, epsilon))
        entries = index._frontier.get(("d", 0), [])
        for a in entries:
            for b in entries:
                if a is b:
                    continue
                assert not (
                    a.k >= b.k and a.epsilon >= b.epsilon * (1 - 1e-9)
                ), "frontier kept a dominated entry"

    @given(
        st.lists(request_pairs(), min_size=1, max_size=12),
        request_pairs(),
    )
    def test_lookup_hit_iff_some_stored_covers(self, stored, request):
        index = ReuseIndex()
        kept = []
        for k, epsilon in stored:
            if index.add("d", 3, _release_payload(k, epsilon)):
                kept.append((k, epsilon))
        rk, reps = request
        decision = index.lookup("d", 3, rk, reps)
        expected = any(
            reuse_covers(k, epsilon, rk, reps) for k, epsilon in stored
        )
        assert decision.hit == expected
        if decision.hit:
            assert reuse_covers(
                decision.source.k, decision.source.epsilon, rk, reps
            )
            assert decision.epsilon_saved == float(reps)

    @given(st.lists(request_pairs(), min_size=1, max_size=8))
    def test_lookup_never_crosses_dataset_or_snapshot(self, stored):
        index = ReuseIndex()
        for k, epsilon in stored:
            index.add("d", 1, _release_payload(k, epsilon))
        assert not index.lookup("other", 1, 1, 1e-6).hit
        assert not index.lookup("d", 0, 1, 1e-6).hit
        assert not index.lookup("d", 2, 1, 1e-6).hit

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["d1", "d2"]),
                st.integers(min_value=0, max_value=3),
                request_pairs(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=0, max_value=4),
    )
    def test_invalidation_is_exact(self, stored, cutoff):
        index = ReuseIndex()
        for dataset, version, (k, epsilon) in stored:
            index.add(dataset, version, _release_payload(k, epsilon))
        stale = sum(
            len(entries)
            for (dataset, version), entries in index._frontier.items()
            if dataset == "d1" and version < cutoff
        )
        survivors_before = {
            key: len(entries)
            for key, entries in index._frontier.items()
            if not (key[0] == "d1" and key[1] < cutoff)
        }
        dropped = index.invalidate_before("d1", cutoff)
        assert dropped == stale
        assert {
            key: len(entries)
            for key, entries in index._frontier.items()
        } == survivors_before
        assert index.stats()["invalidated"] == stale

    def test_index_is_bounded_per_key(self):
        index = ReuseIndex(max_entries_per_key=4)
        # An anti-chain: k rising while ε falls — nothing dominates.
        for i in range(20):
            index.add(
                "d", 0, _release_payload(i + 1, 10.0 / (i + 1))
            )
        assert len(index) <= 4

    def test_non_release_payloads_are_ignored(self):
        index = ReuseIndex()
        assert not index.add("d", 0, {"note": "not a release"})
        assert not index.add("d", 0, {"k": 0, "epsilon": 1.0})
        assert not index.add(
            "d", 0, {"k": 3, "epsilon": -1.0, "itemsets": []}
        )
        assert not index.add(
            "d", 0, {"k": True, "epsilon": 1.0, "itemsets": []}
        )
        assert len(index) == 0


# ---------------------------------------------------------------------------
# Service-level scoping: tenants, journaled ledgers, the wire
# ---------------------------------------------------------------------------


def _toy_database():
    rng = np.random.default_rng(17)
    rows = [
        sorted(
            set(rng.integers(0, 10, size=rng.integers(1, 5)).tolist())
        )
        for _ in range(150)
    ]
    from repro.datasets.transactions import TransactionDatabase

    return TransactionDatabase(rows, num_items=10)


def _service(tmp_path=None, reuse=True, tenants=None, database=None):
    registry = TenantRegistry.from_mapping(
        tenants
        or {
            "alice": {
                "dataset": "toy", "epsilon_limit": 40.0, "ingest": True
            },
            "bob": {"dataset": "toy", "epsilon_limit": 40.0},
        }
    )
    if database is None:
        database = _toy_database()
    return PrivBasisService(
        registry,
        dataset_loader=lambda name: database,
        state_dir=str(tmp_path) if tmp_path is not None else None,
        reuse=reuse,
    )


@pytest.fixture(params=["memory", "durable"])
def state_dir(request, tmp_path):
    """Both persistence modes: the in-memory store and a state dir."""
    return None if request.param == "memory" else tmp_path


class TestServiceReuse:
    def test_reuse_never_crosses_the_tenant_boundary(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            bob = await service.handle_release(
                {"tenant": "bob", "k": 5, "epsilon": 0.5}
            )
            alice = await service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 0.5}
            )
            await service.stop()
            return bob, alice

        bob, alice = asyncio.run(scenario())
        # Bob's dominated request must NOT be served from Alice's
        # stored release; Alice's own is.
        assert bob["reuse"]["hit"] is False
        assert alice["reuse"]["hit"] is True
        assert alice["reuse"]["source"] == {
            "k": 10, "epsilon": 1.0, "snapshot_version": 0,
        }

    def test_ledger_debits_zero_on_hits(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            spent_before = service.registry.get("alice").spent
            hit = await service.handle_release(
                {"tenant": "alice", "k": 4, "epsilon": 0.25}
            )
            spent_after = service.registry.get("alice").spent
            metrics = service.handle_metrics()
            await service.stop()
            return hit, spent_before, spent_after, metrics

        hit, before, after, metrics = asyncio.run(scenario())
        assert hit["reuse"]["hit"] is True
        assert hit["reuse"]["epsilon_charged"] == 0.0
        assert hit["reuse"]["epsilon_saved"] == 0.25
        assert after == before  # the journaled ledger never moved
        assert metrics["reuse"]["hits"] == 1
        assert metrics["reuse"]["misses"] == 1
        assert metrics["reuse"]["epsilon_saved"] == 0.25
        # The result store owns the reuse index in both modes.
        assert metrics["store"]["results"]["reuse"]["entries"] == 1

    def test_hit_payload_is_the_truncated_stored_release(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            cold = await service.handle_release(
                {"tenant": "alice", "k": 8, "epsilon": 2.0}
            )
            hit = await service.handle_release(
                {"tenant": "alice", "k": 3, "epsilon": 0.5}
            )
            await service.stop()
            return cold, hit

        cold, hit = asyncio.run(scenario())
        stored = {
            key: value
            for key, value in cold.items()
            if key in ("method", "k", "epsilon", "itemsets",
                       "snapshot_version")
        }
        expected = top_k_truncate(stored, 3, 0.5)
        served = {
            key: value
            for key, value in hit.items()
            if key in ("method", "k", "epsilon", "itemsets",
                       "snapshot_version")
        }
        assert served == expected

    def test_hits_issue_zero_backend_queries(self, state_dir):
        sealable = SealableBackend(BitmapBackend(_toy_database()))

        async def scenario():
            service = _service(state_dir, database=sealable)
            cold = await service.handle_release(
                {"tenant": "alice", "k": 8, "epsilon": 2.0}
            )
            # From here on any data access raises: only the stored
            # payload can answer.
            sealable.seal()
            hits = [
                await service.handle_release(
                    {"tenant": "alice", "k": 3, "epsilon": 0.5}
                )
                for _ in range(2)
            ]
            with pytest.raises(AssertionError, match="sealed backend"):
                # Control: a fresh run does touch data.
                await service.handle_release(
                    {"tenant": "alice", "k": 20, "epsilon": 0.5}
                )
            await service.stop()
            return cold, hits

        cold, hits = asyncio.run(scenario())
        assert all(hit["reuse"]["hit"] is True for hit in hits)
        # A pure function of the stored payload: bit-identical repeats.
        assert hits[0] == hits[1]
        assert hits[0]["itemsets"] == top_k_truncate(
            cold, 3, 0.5
        )["itemsets"]

    def test_identical_repeat_runs_fresh_and_is_charged(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 1.0}
            )
            spent_before = service.registry.get("alice").spent
            repeat = await service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 1.0}
            )
            spent_after = service.registry.get("alice").spent
            metrics = service.handle_metrics()
            await service.stop()
            return repeat, spent_before, spent_after, metrics

        repeat, before, after, metrics = asyncio.run(scenario())
        assert repeat["reuse"]["hit"] is False  # freshness carve-out
        assert math.isclose(after - before, 1.0, rel_tol=1e-12)
        assert metrics["reuse"]["hits"] == 0

    def test_hit_never_crosses_a_snapshot(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            await service.handle_ingest(
                {"tenant": "alice", "transactions": [[0, 1], [2]]}
            )
            fresh = await service.handle_release(
                {"tenant": "alice", "k": 8, "epsilon": 0.8}
            )
            hit = await service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 0.5}
            )
            await service.stop()
            return fresh, hit

        fresh, hit = asyncio.run(scenario())
        # The version-0 release covers both requests but is pinned to
        # the old data: the first runs fresh on version 1, and the
        # hit is served from that version-1 release.
        assert fresh["reuse"]["hit"] is False
        assert fresh["snapshot_version"] == 1
        assert hit["reuse"]["hit"] is True
        assert hit["reuse"]["source"] == {
            "k": 8, "epsilon": 0.8, "snapshot_version": 1,
        }
        assert hit["snapshot_version"] == 1

    def test_plan_prices_a_hit_at_zero_epsilon(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            cold_plan = service.handle_plan(
                {"tenant": "alice", "k": "5", "epsilon": "0.5"}
            )
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            warm_plan = service.handle_plan(
                {"tenant": "alice", "k": "5", "epsilon": "0.5"}
            )
            uncovered = service.handle_plan(
                {"tenant": "alice", "k": "50", "epsilon": "0.5"}
            )
            await service.stop()
            return cold_plan, warm_plan, uncovered

        cold_plan, warm_plan, uncovered = asyncio.run(scenario())
        assert cold_plan["reuse"]["available"] is False
        assert warm_plan["reuse"]["available"] is True
        assert warm_plan["reuse"]["epsilon"] == 0.0
        assert uncovered["reuse"]["available"] is False

    def test_ingest_invalidates_service_reuse(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            await service.handle_ingest(
                {"tenant": "alice", "transactions": [[0, 1], [2]]}
            )
            stale = await service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 0.5}
            )
            await service.stop()
            return stale

        stale = asyncio.run(scenario())
        assert stale["reuse"]["hit"] is False
        assert stale["snapshot_version"] == 1

    def test_reuse_sources_survive_only_a_durable_restart(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            await service.stop()
            reborn = _service(state_dir)
            hit = await reborn.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 0.5}
            )
            await reborn.stop()
            return hit

        hit = asyncio.run(scenario())
        if state_dir is None:
            # The in-memory store keeps nothing across a restart.
            assert hit["reuse"]["hit"] is False
            return
        assert hit["reuse"]["hit"] is True
        assert hit["reuse"]["source"]["k"] == 10

    def test_no_reuse_opts_out_entirely(self, state_dir):
        async def scenario():
            service = _service(state_dir, reuse=False)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            dominated = await service.handle_release(
                {"tenant": "alice", "k": 5, "epsilon": 0.5}
            )
            plan = service.handle_plan(
                {"tenant": "alice", "k": "5", "epsilon": "0.5"}
            )
            metrics = service.handle_metrics()
            await service.stop()
            return dominated, plan, metrics

        dominated, plan, metrics = asyncio.run(scenario())
        assert "reuse" not in dominated
        assert "reuse" not in plan
        assert metrics["reuse"] == {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "epsilon_saved": 0.0,
        }

    def test_no_reuse_cli_flag_parses(self):
        from repro.service.__main__ import build_parser

        arguments = build_parser().parse_args(["--no-reuse"])
        assert arguments.no_reuse is True
        assert build_parser().parse_args([]).no_reuse is False

    def test_planner_and_noise_overrides_bypass_reuse(self, state_dir):
        async def scenario():
            service = _service(state_dir)
            await service.handle_release(
                {"tenant": "alice", "k": 10, "epsilon": 1.0}
            )
            planned = await service.handle_release(
                {
                    "tenant": "alice", "k": 5, "epsilon": 0.5,
                    "planner": "adaptive",
                }
            )
            noised = await service.handle_release(
                {
                    "tenant": "alice", "k": 5, "epsilon": 0.5,
                    "noise": "geometric",
                }
            )
            await service.stop()
            return planned, noised

        planned, noised = asyncio.run(scenario())
        # Overridden requests run fresh: no reuse block at all (the
        # lookup is never consulted for them).
        assert "reuse" not in planned
        assert "reuse" not in noised
