"""The three workloads, their smoke-scale twins, and their inputs.

Everything a run sends is generated here from ``--seed``; the server
receives only those requests.  See ``GLOSSARY.md`` for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

#: The Quest-40k configuration of ``benchmarks/bench_service.py``.
QUEST_40K = dict(num_transactions=40_000, num_items=120,
                 avg_transaction_length=10.0, avg_pattern_length=4.0,
                 num_patterns=40)
#: Its smoke-scale twin (the same file's ``SMOKE_CONFIG``).
QUEST_TINY = dict(num_transactions=2_000, num_items=60,
                  avg_transaction_length=8.0, avg_pattern_length=4.0,
                  num_patterns=20)
#: Seed of the served Quest database (fixed, as in bench_service.py).
QUEST_DATA_SEED = 3


@dataclass(frozen=True)
class Workload:
    """One workload: what the server serves and what the client sends."""

    name: str
    #: ``{"kind": "registry", "name": ...}`` or ``{"kind": "quest", ...}``.
    dataset: Dict[str, object]
    tenants: List[str]
    #: Extra ``PrivBasisService`` keyword arguments.
    service: Dict[str, object] = field(default_factory=dict)
    #: Whether the service keeps durable state (a fresh state dir per
    #: server process).
    state_dir: bool = False
    #: ``"closed"`` (each connection back to back) or ``"open"``.
    loop: str = "closed"
    connections: int = 2
    k: int = 100
    epsilon: float = 1.0
    #: Open loop: arrivals per second and the request mix.
    rate: float = 0.0
    dominated_k: int = 20
    dominated_epsilon: float = 0.5
    ingest_rows: int = 0
    #: Closed loop: dominated requests sent before each fresh release.
    hits_per_release: int = 1
    #: Server spawns per untraced run; ``setup_s`` is their median.
    setups: int = 3
    #: Mean F1 against the exact top-k must stay at or above this.
    f1_floor: float = 0.0


#: Open-loop request mix (shares of all arrivals).
MIX = (("fresh", 0.45), ("dominated", 0.45), ("ingest", 0.05),
       ("read", 0.05))

FULL: Dict[str, Workload] = {
    "retail-release": Workload(
        name="retail-release",
        dataset={"kind": "registry", "name": "retail"},
        tenants=["analyst-a", "analyst-b"],
        f1_floor=0.9,
    ),
    "quest-mixed": Workload(
        name="quest-mixed",
        dataset={"kind": "quest", "config": QUEST_40K,
                 "seed": QUEST_DATA_SEED, "name": "quest-40k"},
        tenants=["analyst-a", "analyst-b"],
        service={"fsync": "batch", "reuse": True},
        state_dir=True,
        loop="open", k=50, rate=12.0, ingest_rows=20, setups=2,
        f1_floor=0.95,
    ),
    "tierlarge-mmap": Workload(
        name="tierlarge-mmap",
        dataset={"kind": "registry", "name": "tier-large"},
        tenants=["analyst-a"],
        service={"data_plane": "mmap", "memory_budget_mb": 64},
        connections=1, hits_per_release=40, setups=1,
        f1_floor=0.9,
    ),
}

SMOKE: Dict[str, Workload] = {
    "retail-release": replace(
        FULL["retail-release"], setups=1, f1_floor=0.0,
        dataset={"kind": "registry", "name": "mushroom"}),
    "quest-mixed": replace(
        FULL["quest-mixed"], setups=1, f1_floor=0.0, rate=40.0,
        ingest_rows=5,
        dataset={"kind": "quest", "config": QUEST_TINY,
                 "seed": QUEST_DATA_SEED, "name": "quest-tiny"}),
    "tierlarge-mmap": replace(
        FULL["tierlarge-mmap"], setups=1, f1_floor=0.0,
        dataset={"kind": "registry", "name": "tier-tiny"},
        service={"data_plane": "mmap", "memory_budget_mb": 1}),
}


def workload(name: str, smoke: bool = False) -> Optional[Workload]:
    return (SMOKE if smoke else FULL).get(name)


def release_body(tenant: str, k: int, epsilon: float, trace: bool) -> dict:
    body = {"tenant": tenant, "k": k, "epsilon": epsilon}
    if trace:
        body["trace"] = True
    return body


def baskets(rng: random.Random, count: int, num_items: int,
            length: int = 6) -> List[List[int]]:
    """``count`` random sorted baskets over ``num_items`` items."""
    return [
        sorted(rng.sample(range(num_items), min(length, num_items)))
        for _ in range(count)
    ]


def closed_plan(spec: Workload, trace: bool) -> List[List[list]]:
    """Per connection, the requests it sends in turn, back to back.

    Each connection is one tenant.  It sends ``hits_per_release``
    dominated requests (``dominated_k``, ``dominated_epsilon``), which
    the reuse plane answers at ε = 0 from the tenant's last fresh
    release, then a fresh release, and repeats.  The hits come first so
    that a window too short for two releases still measures them (the
    set-up release of the first tenant covers them).

    - With two tenants (retail) it is one hit per fresh release, the
      1:1 ratio of the open-loop mix; each hit runs while the other
      tenant's release holds the dataset lock.
    - With one tenant (tier-large) the hits run between releases, when
      the server is otherwise idle, so they cannot slow a release.  At
      ~6 releases a window, one hit each would leave a median of six
      cold samples; forty each gives ~240.
    """
    def release(tenant, k, epsilon):
        return ["release", tenant, "POST", "/v1/release",
                release_body(tenant, k, epsilon, trace)]

    return [[release(tenant, spec.dominated_k, spec.dominated_epsilon)]
            * spec.hits_per_release + [release(tenant, spec.k, spec.epsilon)]
            for tenant in spec.tenants[:spec.connections]]


def open_schedule(spec: Workload, seed: int, seconds: float,
                  num_items: int, trace: bool) -> List[list]:
    """The open-loop arrivals: ``[due_s, op, tenant, method, path, body]``.

    ``round(rate * seconds)`` arrival times are drawn uniformly over the
    window and sorted, which is a Poisson process conditioned on its
    count; the mix is an exactly proportioned deck shuffled by ``seed``,
    so every run of a given length sends the same number of each kind.
    A request goes out on whichever connection is free first.
    """
    rng = random.Random(seed)
    total = max(1, round(spec.rate * seconds))
    deck: List[str] = []
    for kind, share in MIX:
        deck += [kind] * round(share * total)
    deck = (deck + ["fresh"] * total)[:total]
    rng.shuffle(deck)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(total))
    requests = []
    for due, kind in zip(dues, deck):
        tenant = rng.choice(spec.tenants)
        if kind == "fresh":
            request = ["release", "POST", "/v1/release",
                       release_body(tenant, spec.k, spec.epsilon, trace)]
        elif kind == "dominated":
            request = ["release", "POST", "/v1/release",
                       release_body(tenant, spec.dominated_k,
                                    spec.dominated_epsilon, trace)]
        elif kind == "ingest":
            request = ["ingest", "POST", "/v1/ingest",
                       {"tenant": tenant,
                        "transactions": baskets(rng, spec.ingest_rows,
                                                num_items)}]
        else:
            path = rng.choice(("/v1/budget", "/v1/snapshot"))
            request = ["read", "GET", f"{path}?tenant={tenant}", None]
        requests.append([due, request[0], tenant, *request[1:]])
    return requests
