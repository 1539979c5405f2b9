"""Tenant registry: API tenants, their datasets, and their ε ledgers.

A *tenant* is one analyst (or downstream application) the data holder
serves.  Each tenant is bound to exactly one named dataset from
:mod:`repro.datasets.registry` and owns a
:class:`~repro.dp.budget.PrivacyBudget` ledger capped at its
``epsilon_limit`` — the per-tenant privacy contract the service
enforces with HTTP 403 once exhausted.

Tenants sharing a dataset share the *exact* counting substrate (one
:class:`~repro.engine.session.PrivBasisSession` per dataset, built via
the coalescer) but never share budgets or randomness: ledgers are
per-tenant, noise is per-release.

Streaming: each tenant additionally carries an ``ingest`` permission
(default ``True``) gating ``POST /v1/ingest``; a read-only analyst
tenant (``"ingest": false``) can release and read snapshots but not
append — appends answer HTTP 403 ``ingest_forbidden``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from repro.dp.budget import PrivacyBudget
from repro.errors import (
    BudgetExceededError,
    UnknownTenantError,
    ValidationError,
)

if TYPE_CHECKING:  # service → store is a runtime-optional dependency
    from repro.store.ledger import LedgerJournal

__all__ = ["Tenant", "TenantRegistry"]

#: Relative tolerance for admission checks, matching the ledger's.
_REL_TOL = 1e-9


@dataclass
class Tenant:
    """One API tenant: identity, dataset binding, ε ledger, and the
    ingest permission gating ``POST /v1/ingest``.

    ``ingest`` defaults to ``True`` (the data holder's feed and demo
    setups append freely); set ``"ingest": false`` in the config to
    make an analyst tenant read-only — it can still release and read
    snapshots, but appending answers HTTP 403 ``ingest_forbidden``.
    """

    tenant_id: str
    dataset: str
    epsilon_limit: float
    ingest: bool = True
    ledger: PrivacyBudget = field(init=False)
    _journal: Optional["LedgerJournal"] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.tenant_id or not isinstance(self.tenant_id, str):
            raise ValidationError(
                f"tenant_id must be a non-empty string, "
                f"got {self.tenant_id!r}"
            )
        if not (self.epsilon_limit > 0):
            raise ValidationError(
                f"epsilon_limit for tenant {self.tenant_id!r} must be "
                f"positive, got {self.epsilon_limit!r}"
            )
        self.ledger = PrivacyBudget(float(self.epsilon_limit))

    # -- durable accounting ---------------------------------------------
    def attach_journal(self, journal: "LedgerJournal") -> None:
        """Bind this tenant's ledger to a durable journal.

        Two effects, in order: every debit the journal already holds
        for this tenant is *restored* into the in-memory ledger (the
        recovery path), then the ledger's write-ahead hook is
        installed so every future :meth:`charge` reaches the journal
        before it reaches memory (the live path).  From here on
        :attr:`spent` reads the journaled value, so both paths answer
        admission checks from the same number.

        The hook goes through the journal's atomic
        :meth:`~repro.store.ledger.LedgerJournal.debit_within_limit`,
        so ``epsilon_limit`` is enforced by the journal itself at the
        instant of the debit.  For a single process that merely
        re-verifies what :meth:`charge` already checked; on a
        cluster-shared journal it is the *binding* check — the one
        place two workers racing a tenant's last ε get serialized.
        """
        restored = journal.entries(self.tenant_id)
        if restored:
            self.ledger.restore_entries(restored)
        tenant_id = self.tenant_id
        limit = float(self.epsilon_limit)
        self.ledger.attach_journal(
            lambda label, epsilon: journal.debit_within_limit(
                tenant_id, epsilon, limit, label
            )
        )
        self._journal = journal

    @property
    def spent(self) -> float:
        """ε consumed so far — the **journaled** value when a durable
        journal is attached, the in-memory ledger otherwise.

        This is the single spent figure every admission check reads.
        Comparing against the journal (not an in-memory snapshot)
        means a freshly recovered service and a long-running one
        enforce ``epsilon_limit`` through the same code path, and the
        two sources cannot silently diverge.
        """
        if self._journal is not None:
            return self._journal.spent(self.tenant_id)
        return self.ledger.spent

    @property
    def remaining(self) -> float:
        """Budget still available under ``epsilon_limit``; never
        negative (a recovered over-count simply clamps to zero)."""
        return max(0.0, float(self.epsilon_limit) - self.spent)

    def affords(self, epsilon: float) -> bool:
        """The one admission check: does ``epsilon`` fit the remaining
        budget, up to a relative tolerance of the limit (so float
        wobble like ``0.3 - 0.1`` never refuses a spend that fits)?

        Single releases, batches and ``/v1/plan`` quotes all ask
        this, so they admit exactly the same requests.
        """
        tolerance = _REL_TOL * float(self.epsilon_limit)
        return epsilon <= self.remaining + tolerance

    def charge(self, epsilon: float, label: str = "") -> float:
        """Spend ``epsilon`` against this tenant's durable ledger.

        The exhausted-budget check compares against :attr:`spent`
        (journaled when durable) *before* the ledger records
        anything; the ledger's own overdraft check then re-verifies
        against its in-memory state, which journal attachment keeps
        in lockstep.  With a journal attached the debit is
        write-ahead: it reaches the WAL before the in-memory entry
        exists, and the caller must run the store's durability
        barrier before releasing the corresponding noisy answer.
        """
        if not (epsilon > 0):
            raise ValidationError(
                f"epsilon must be positive, got {epsilon!r}"
            )
        if not self.affords(epsilon):
            raise BudgetExceededError(epsilon, self.remaining)
        return self.ledger.spend(epsilon, label=label)

    def snapshot(self) -> Dict[str, object]:
        """The ``/v1/budget`` payload for this tenant.

        With a durable journal attached the ledger section is built
        from the *journal* (same shape as the in-memory
        :meth:`~repro.dp.budget.PrivacyBudget.snapshot`): for one
        process the two are in lockstep, but on a cluster-shared
        journal only the journal sees debits other workers made, and
        a budget read must never show a tenant less spent than the
        cluster has recorded.
        """
        if self._journal is not None:
            ledger_view: Dict[str, object] = {
                "epsilon": float(self.epsilon_limit),
                "spent": self.spent,
                "remaining": self.remaining,
                "entries": [
                    {"label": label, "epsilon": epsilon}
                    for label, epsilon in self._journal.entries(
                        self.tenant_id
                    )
                ],
            }
        else:
            ledger_view = self.ledger.snapshot()
        return {
            "tenant": self.tenant_id,
            "dataset": self.dataset,
            "epsilon_limit": self.epsilon_limit,
            "ingest": self.ingest,
            "ledger": ledger_view,
        }


class TenantRegistry:
    """Maps tenant ids to :class:`Tenant` records.

    Construct directly from :class:`Tenant` objects, from a plain
    mapping (:meth:`from_mapping`) or from a JSON config file
    (:meth:`from_json_file`) — the shape the ``python -m repro.service``
    entrypoint reads.
    """

    def __init__(self, tenants: Optional[List[Tenant]] = None) -> None:
        self._tenants: Dict[str, Tenant] = {}
        for tenant in tenants or []:
            self.add(tenant)

    def add(self, tenant: Tenant) -> None:
        """Register ``tenant`` (duplicate ids are a config error).

        Dataset names are *not* validated here: which names resolve is
        the dataset loader's business, and the service accepts custom
        loaders.  :class:`~repro.service.app.PrivBasisService` checks
        names against the built-in registry at startup when it uses
        the default loader, so CLI typos still fail fast.
        """
        if tenant.tenant_id in self._tenants:
            raise ValidationError(
                f"duplicate tenant id {tenant.tenant_id!r}"
            )
        if not tenant.dataset or not isinstance(tenant.dataset, str):
            raise ValidationError(
                f"tenant {tenant.tenant_id!r} needs a non-empty dataset "
                f"name, got {tenant.dataset!r}"
            )
        self._tenants[tenant.tenant_id] = tenant

    def get(self, tenant_id: str) -> Tenant:
        """Look up a tenant (:class:`UnknownTenantError` if absent)."""
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(tenant_id)
        return tenant

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    def tenant_ids(self) -> List[str]:
        """All registered tenant ids, in registration order."""
        return list(self._tenants)

    def attach_journal(self, journal: "LedgerJournal") -> None:
        """Bind every tenant's ledger to a durable journal.

        Call once at service startup, before any release is served:
        each tenant's journaled debit history is restored and future
        spends become write-ahead (see :meth:`Tenant.attach_journal`).
        Journal entries for tenants no longer in the config are left
        in the journal untouched — history is never dropped just
        because a tenant was removed.
        """
        for tenant in self._tenants.values():
            tenant.attach_journal(journal)

    def datasets(self) -> List[str]:
        """Distinct datasets referenced by tenants (session pre-warm)."""
        seen: Dict[str, None] = {}
        for tenant in self._tenants.values():
            seen.setdefault(tenant.dataset, None)
        return list(seen)

    @classmethod
    def from_mapping(
        cls, config: Mapping[str, Mapping[str, object]]
    ) -> "TenantRegistry":
        """Build from ``{tenant_id: {"dataset": ..., "epsilon_limit": ...}}``."""
        registry = cls()
        for tenant_id, entry in config.items():
            if not isinstance(entry, Mapping):
                raise ValidationError(
                    f"tenant {tenant_id!r} config must be an object, "
                    f"got {entry!r}"
                )
            unknown = set(entry) - {"dataset", "epsilon_limit", "ingest"}
            if unknown:
                raise ValidationError(
                    f"tenant {tenant_id!r} has unknown config keys "
                    f"{sorted(unknown)}"
                )
            try:
                dataset = str(entry["dataset"])
                epsilon_limit = float(entry["epsilon_limit"])  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError):
                raise ValidationError(
                    f"tenant {tenant_id!r} needs 'dataset' (str) and "
                    f"'epsilon_limit' (number), got {dict(entry)!r}"
                )
            ingest = entry.get("ingest", True)
            if not isinstance(ingest, bool):
                raise ValidationError(
                    f"tenant {tenant_id!r} 'ingest' must be a JSON "
                    f"boolean, got {ingest!r}"
                )
            registry.add(
                Tenant(tenant_id, dataset, epsilon_limit, ingest=ingest)
            )
        if not len(registry):
            raise ValidationError("tenant config defines no tenants")
        return registry

    @classmethod
    def from_json_file(cls, path: str) -> "TenantRegistry":
        """Load :meth:`from_mapping` config from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValidationError(
                f"tenant config file {path!r} must hold a JSON object"
            )
        return cls.from_mapping(config)

    @classmethod
    def demo(cls) -> "TenantRegistry":
        """Two demo tenants on ``mushroom`` (the README quickstart)."""
        return cls.from_mapping(
            {
                "alice": {"dataset": "mushroom", "epsilon_limit": 5.0},
                "bob": {"dataset": "mushroom", "epsilon_limit": 2.0},
            }
        )
