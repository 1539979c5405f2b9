"""Unit tests for :class:`~repro.service.registry.Tenant`'s ledger.

A tenant holds no ε of its own: every spent figure, admission check
and debit goes through the :class:`~repro.store.ledger.LedgerJournal`
it is bound to (the service binds its store's journal at startup).
"""

from __future__ import annotations

import json

import pytest

from repro.errors import BudgetExceededError, ValidationError
from repro.service.registry import Tenant, TenantRegistry
from repro.store import LedgerJournal


def two_tenants() -> TenantRegistry:
    return TenantRegistry.from_mapping(
        {
            "alice": {"dataset": "d", "epsilon_limit": 1.0},
            "bob": {"dataset": "d", "epsilon_limit": 2.0},
        }
    )


class TestTenantLedger:
    def test_unbound_tenants_keep_separate_ledgers(self):
        alice = Tenant("alice", "d", 1.0)
        bob = Tenant("bob", "d", 1.0)
        alice.charge(0.4, "r1")
        assert alice.spent == pytest.approx(0.4)
        assert alice.remaining == pytest.approx(0.6)
        assert bob.spent == 0.0

    def test_attached_journal_is_the_only_ledger(self, tmp_path):
        journal = LedgerJournal(tmp_path)
        journal.debit("alice", 0.5, "before the restart")
        registry = two_tenants()
        registry.attach_journal(journal)
        alice, bob = registry.get("alice"), registry.get("bob")
        # Debits already journaled count at once (recovery) ...
        assert alice.spent == pytest.approx(0.5)
        # ... and every charge lands in the journal, per tenant.
        alice.charge(0.25, "r1")
        bob.charge(1.0, "r2")
        assert journal.entries("alice") == [
            ("before the restart", 0.5),
            ("r1", 0.25),
        ]
        assert journal.spent("bob") == pytest.approx(1.0)
        assert alice.remaining == pytest.approx(0.25)

    def test_refused_charge_spends_nothing(self):
        registry = two_tenants()
        journal = LedgerJournal(None)
        registry.attach_journal(journal)
        alice = registry.get("alice")
        alice.charge(0.8, "r1")
        assert not alice.affords(0.5)
        with pytest.raises(BudgetExceededError) as info:
            alice.charge(0.5, "r2")
        assert info.value.remaining == pytest.approx(0.2)
        assert journal.entries("alice") == [("r1", 0.8)]

    def test_snapshot_reads_the_journal(self):
        registry = two_tenants()
        registry.attach_journal(LedgerJournal(None))
        registry.get("bob").charge(0.5, "release k=5")
        assert registry.get("bob").snapshot() == {
            "tenant": "bob",
            "dataset": "d",
            "epsilon_limit": 2.0,
            "ingest": True,
            "ledger": {
                "epsilon": 2.0,
                "spent": 0.5,
                "remaining": 1.5,
                "entries": [{"label": "release k=5", "epsilon": 0.5}],
            },
        }


class TestTenantLimit:
    """A limit ``/v1/budget`` could not encode as JSON, or a config
    ``true`` Python would read as 1.0, is refused at startup."""

    @pytest.mark.parametrize(
        "limit", [float("inf"), float("nan"), True],
        ids=["infinity", "nan", "bool"],
    )
    def test_non_finite_and_bool_limits_are_refused(self, limit):
        with pytest.raises(ValidationError, match="finite"):
            Tenant("alice", "d", limit)
        with pytest.raises(ValidationError, match="finite"):
            TenantRegistry.from_mapping(
                {"alice": {"dataset": "d", "epsilon_limit": limit}}
            )

    def test_config_infinity_is_refused(self):
        config = json.loads(
            '{"alice": {"dataset": "d", "epsilon_limit": Infinity}}'
        )
        with pytest.raises(ValidationError):
            TenantRegistry.from_mapping(config)
