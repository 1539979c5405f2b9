"""Tenant registry: API tenants, their datasets, and their ε ledgers.

A *tenant* is one analyst (or downstream application) the data holder
serves.  Each tenant is bound to exactly one named dataset from
:mod:`repro.datasets.registry` and spends against an ``epsilon_limit``
— the per-tenant privacy contract the service enforces with HTTP 403
once exhausted.  The tenant's ledger is the service's
:class:`~repro.store.ledger.LedgerJournal`, the one record of every
debit, in memory (over :class:`~repro.store.wal.NullLog`) or on disk
alike: :meth:`TenantRegistry.attach_journal` binds it at startup, and
every spent figure, admission check and debit goes through it.

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
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.errors import UnknownTenantError, ValidationError
from repro.store.ledger import LedgerJournal

__all__ = ["Tenant", "TenantRegistry"]


@dataclass
class Tenant:
    """One API tenant: identity, dataset binding, ε limit, and the
    ingest permission gating ``POST /v1/ingest``.

    ``ingest`` defaults to ``True`` (the data holder's feed and demo
    setups append freely); set ``"ingest": false`` in the config to
    make an analyst tenant read-only — it can still release and read
    snapshots, but appending answers HTTP 403 ``ingest_forbidden``.

    The spent ε lives in a :class:`~repro.store.ledger.LedgerJournal`
    keyed by ``tenant_id``: a tenant's own in-memory one until
    :meth:`attach_journal` binds the service's.
    """

    tenant_id: str
    dataset: str
    epsilon_limit: float
    ingest: bool = True
    _journal: LedgerJournal = field(
        init=False, repr=False, compare=False,
        default_factory=lambda: LedgerJournal(None),
    )

    def __post_init__(self) -> None:
        if not self.tenant_id or not isinstance(self.tenant_id, str):
            raise ValidationError(
                f"tenant_id must be a non-empty string, "
                f"got {self.tenant_id!r}"
            )
        # A bool is an int to Python but never a budget, and an
        # infinite limit has no JSON encoding for /v1/budget to send.
        if (
            isinstance(self.epsilon_limit, bool)
            or not (self.epsilon_limit > 0)
            or not math.isfinite(self.epsilon_limit)
        ):
            raise ValidationError(
                f"epsilon_limit for tenant {self.tenant_id!r} must be "
                f"a positive finite number, got {self.epsilon_limit!r}"
            )
        self.epsilon_limit = float(self.epsilon_limit)

    def attach_journal(self, journal: LedgerJournal) -> None:
        """Keep this tenant's ledger in ``journal`` from now on.

        The debits ``journal`` already holds for this tenant (a
        recovered state directory, or other cluster workers' spends
        on a shared one) count as spent at once.
        """
        self._journal = journal

    @property
    def spent(self) -> float:
        """ε consumed so far: the journal's total for this tenant,
        the one spent figure every admission check reads."""
        return self._journal.spent(self.tenant_id)

    @property
    def remaining(self) -> float:
        """Budget still available under ``epsilon_limit``; never
        negative (a recovered over-count simply clamps to zero)."""
        return self._journal.remaining(self.tenant_id, self.epsilon_limit)

    def affords(self, epsilon: float) -> bool:
        """Does ``epsilon`` fit the remaining budget?  Single releases,
        batches and ``/v1/plan`` quotes all ask this, and it is the
        check :meth:`charge` makes (see
        :meth:`~repro.store.ledger.LedgerJournal.affords`)."""
        return self._journal.affords(
            self.tenant_id, epsilon, self.epsilon_limit
        )

    def charge(self, epsilon: float, label: str = "") -> None:
        """Spend ``epsilon``, or raise
        :class:`~repro.errors.BudgetExceededError` with nothing spent.

        The check and the debit are one journal call
        (:meth:`~repro.store.ledger.LedgerJournal.debit_within_limit`),
        atomic cluster-wide on a shared journal.  The debit is
        write-ahead: the caller runs the store's durability barrier
        before releasing the corresponding noisy answer.
        """
        self._journal.debit_within_limit(
            self.tenant_id, epsilon, self.epsilon_limit, label
        )

    def snapshot(self) -> Dict[str, object]:
        """The ``/v1/budget`` payload for this tenant.

        Read from the journal, so on a cluster-shared journal it
        includes debits other workers made: a budget read never shows
        a tenant less spent than the cluster has recorded.
        """
        return {
            "tenant": self.tenant_id,
            "dataset": self.dataset,
            "epsilon_limit": self.epsilon_limit,
            "ingest": self.ingest,
            "ledger": {
                "epsilon": self.epsilon_limit,
                "spent": self.spent,
                "remaining": self.remaining,
                "entries": [
                    {"label": label, "epsilon": epsilon}
                    for label, epsilon in self._journal.entries(
                        self.tenant_id
                    )
                ],
            },
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

    def attach_journal(self, journal: LedgerJournal) -> None:
        """Keep every tenant's ledger in ``journal``.

        The service calls this once at startup with its store's
        journal, before any release is served, so a recovered tenant
        has no window in which to overspend.  Journal entries for
        tenants no longer in the config are left untouched — history
        is never dropped just because a tenant was removed.
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
                epsilon_limit = entry["epsilon_limit"]
                if not isinstance(epsilon_limit, bool):
                    epsilon_limit = float(epsilon_limit)  # type: ignore[arg-type]
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
