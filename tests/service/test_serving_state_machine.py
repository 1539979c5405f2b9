"""A state machine over the service's serving state.

Drives one :class:`~repro.service.PrivBasisService` through releases
(fresh and reuse hits), ingests, ``stop()``/``start()`` restarts and —
with a state dir only — crashes (a new service opened on the same
directory without ``stop()``), on both data planes and both store
modes.  After every step it checks the two facts each of which now has
one owner:

* **versions** (the dataset log): no ``snapshot_version`` ever names
  two data states — not a fresh release's, not an ingest's, not a
  reuse hit's source;
* **release counters** (the result store): ``/metrics``
  ``datasets.<name>`` and ``/v1/snapshot`` count exactly the charged
  releases and their ε.

The model of the served data is the same on both planes: ingested
rows survive a restart only with a state dir (the log replays them);
without one the rebuilt session serves the base rows again.

Example budgets follow ``REPRO_PROPERTY_PROFILE`` (``nightly`` widens
them).
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.datasets.transactions import TransactionDatabase
from repro.engine import mmap
from repro.service import PrivBasisService, TenantRegistry
from tests.pipeline.strategies import PROFILE

DATASET = "mushroom"  # registry name; data comes from the fake loader
NUM_ITEMS = 8

#: (examples, steps per example) by profile.
BUDGET = {"default": (10, 20), "nightly": (100, 40)}[PROFILE]


def base_rows():
    """80 rows over 8 items with a planted frequent block {0, 1, 2}."""
    rng = np.random.default_rng(21)
    rows = []
    for _ in range(80):
        row = set(int(item) for item in rng.choice(NUM_ITEMS, size=2))
        if rng.random() < 0.6:
            row.update((0, 1, 2))
        rows.append(sorted(row))
    return rows


BASE = base_rows()

batches = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=NUM_ITEMS - 1),
        min_size=1, max_size=4, unique=True,
    ),
    min_size=1, max_size=3,
)


def fingerprint(rows):
    """The data state ``rows`` names: size plus exact item supports."""
    database = TransactionDatabase(rows, num_items=NUM_ITEMS)
    return database.num_transactions, tuple(database.item_supports())


def serving_machine(data_plane: str, durable: bool):
    class ServingState(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.loop = asyncio.new_event_loop()
            self.root = tempfile.mkdtemp(prefix="repro-machine-")
            self.abandoned = []
            self.rows = list(BASE)
            #: version -> the one data state it may name.
            self.states = {}
            self.releases = 0
            self.epsilon = 0.0
            self.service = self.build()
            self.run(self.service.start("127.0.0.1", 0))

        def build(self) -> PrivBasisService:
            return PrivBasisService(
                TenantRegistry.from_mapping(
                    {
                        "alice": {"dataset": DATASET, "epsilon_limit": 1e6},
                        "bob": {"dataset": DATASET, "epsilon_limit": 1e6},
                    }
                ),
                dataset_loader=lambda name: TransactionDatabase(
                    BASE, num_items=NUM_ITEMS
                ),
                state_dir=f"{self.root}/state" if durable else None,
                data_plane=data_plane,
            )

        def run(self, coroutine):
            return self.loop.run_until_complete(coroutine)

        def served_state(self):
            """``(version, data state)`` the live session serves."""
            snapshot = self.run(self.service.handle_snapshot("alice"))
            session = self.service.session_for(DATASET)
            state = (
                session.backend.num_transactions,
                tuple(session.backend.item_supports()),
            )
            assert state == fingerprint(self.rows)
            return snapshot, state

        def claim(self, version: int, state) -> None:
            """``version`` names ``state``; it may never name another."""
            named = self.states.setdefault(version, state)
            assert named == state, (
                f"snapshot_version {version} names two data states"
            )

        @rule(
            tenant=st.sampled_from(["alice", "bob"]),
            k=st.integers(min_value=2, max_value=6),
            epsilon=st.sampled_from([0.25, 0.5, 1.0]),
        )
        def release(self, tenant, k, epsilon):
            _, state = self.served_state()
            response = self.run(
                self.service.handle_release(
                    {"tenant": tenant, "k": k, "epsilon": epsilon}
                )
            )
            # A reuse hit's version is its stored source's: that
            # version must name the data served now.
            self.claim(response["snapshot_version"], state)
            if not response["reuse"]["hit"]:
                self.releases += 1
                self.epsilon += epsilon

        @rule(rows=batches)
        def ingest(self, rows):
            response = self.run(
                self.service.handle_ingest(
                    {"tenant": "alice", "transactions": rows}
                )
            )
            self.rows.extend(sorted(row) for row in rows)
            self.claim(response["snapshot_version"], fingerprint(self.rows))

        @rule()
        def restart(self):
            self.run(self.service.stop())
            if not durable:
                self.rows = list(BASE)  # nothing replays the ingests
            self.run(self.service.start("127.0.0.1", 0))

        @precondition(lambda self: durable)
        @rule()
        def crash(self):
            # No stop(): whatever reached the state dir is all the new
            # service has.  The old one is stopped only at teardown.
            self.abandoned.append(self.service)
            self.service = self.build()
            self.run(self.service.start("127.0.0.1", 0))

        @invariant()
        def one_owner_per_fact(self):
            snapshot, state = self.served_state()
            self.claim(snapshot["snapshot_version"], state)
            assert snapshot["num_releases"] == self.releases
            counters = self.service.handle_metrics()["datasets"][DATASET]
            assert counters["num_releases"] == self.releases
            assert counters["epsilon_spent"] == pytest.approx(self.epsilon)

        def teardown(self):
            for service in [self.service, *self.abandoned]:
                self.run(service.stop())
            self.run(self.loop.shutdown_default_executor())
            self.loop.close()
            shutil.rmtree(self.root, ignore_errors=True)

    return ServingState


@pytest.mark.parametrize("durable", [False, True], ids=["in-memory", "durable"])
@pytest.mark.parametrize("data_plane", ["memory", "mmap"])
def test_one_owner_per_serving_fact(data_plane, durable, tmp_path, monkeypatch):
    # Spills without a state dir land in the system temp dir; small
    # segments make the 80 base rows several shards.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(mmap, "DEFAULT_SHARD_SIZE", 32)
    examples, steps = BUDGET
    run_state_machine_as_test(
        serving_machine(data_plane, durable),
        settings=settings(
            max_examples=examples,
            stateful_step_count=steps,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        ),
    )
