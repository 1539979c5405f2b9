"""Wire format for the PrivBasis service (JSON request/response bodies).

Request validation lives here so the HTTP layer stays transport-only
and the same checks protect every entry point (single release, batch,
and the in-process client used by benchmarks).

A deliberate contract choice: release requests are **seed-less**.  The
server draws fresh OS-seeded randomness per release; accepting a
client-supplied seed would let one tenant replay another's noise (or
their own, voiding the per-release ε guarantee), so ``seed`` / ``rng``
keys are rejected with ``validation_error`` rather than ignored.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.core.result import PrivateFIMResult
from repro.errors import ValidationError
from repro.pipeline.plan import validate_epsilon
from repro.pipeline.planner import resolve_planner

__all__ = [
    "parse_release_request",
    "parse_batch_request",
    "parse_ingest_request",
    "parse_plan_query",
    "result_to_wire",
]

#: Noise mechanisms a release request may name (privbasis ``noise=``).
ALLOWED_NOISE = ("laplace", "geometric")

#: Keys a release request may carry beyond ``tenant``.
_RELEASE_KEYS = {"k", "epsilon", "noise", "planner", "trace"}

#: Keys that are rejected outright (see module docstring).
_FORBIDDEN_KEYS = {"seed", "rng"}

#: Upper bound on k per request — protects the shared mining substrate
#: from a single tenant requesting an absurdly wide release.
MAX_K = 10_000

#: Upper bound on requests per batch.
MAX_BATCH = 256

#: Upper bound on transactions per ingest request — bounds the work one
#: ``POST /v1/ingest`` can force onto the shared per-dataset lock;
#: bigger feeds split into multiple requests (the CLI batches for you).
MAX_INGEST_TRANSACTIONS = 10_000

#: Upper bound on items per ingested transaction (real baskets are
#: tens of items; thousands signals a malformed or adversarial feed).
MAX_TRANSACTION_ITEMS = 1_000


def _require_mapping(body: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise ValidationError(
            f"{what} must be a JSON object, got {type(body).__name__}"
        )
    return body


def parse_release_request(body: Any) -> Dict[str, Any]:
    """Validate one release body into ``privbasis`` keyword arguments.

    Returns ``{"k": int, "epsilon": float}`` plus ``noise`` /
    ``planner`` / ``trace`` when given.  A ``planner`` value (a name
    like ``"adaptive"`` or ``{"name": "custom", "alphas": [...]}``) is
    resolved here — unknown names answer ``unknown_planner`` before
    any budget is charged or data touched.  ``trace: true`` opts the
    response into the per-stage execution trace.  Raises
    :class:`~repro.errors.ValidationError` on anything malformed,
    including forbidden ``seed``/``rng`` keys.
    """
    body = _require_mapping(body, "release request")
    forbidden = _FORBIDDEN_KEYS & set(body)
    if forbidden:
        raise ValidationError(
            f"release requests are seed-less by design; remove "
            f"{sorted(forbidden)} (the server draws fresh randomness "
            f"per release)"
        )
    unknown = set(body) - _RELEASE_KEYS - {"tenant"}
    if unknown:
        raise ValidationError(
            f"unknown release request keys {sorted(unknown)}; "
            f"allowed: {sorted(_RELEASE_KEYS)}"
        )
    if "k" not in body or "epsilon" not in body:
        raise ValidationError("release request needs 'k' and 'epsilon'")
    # Exact JSON types, no coercion: int(2.7) would silently serve a
    # k=2 release the tenant did not ask for (and still charge it),
    # and JSON true would pass float() as 1.0.
    k = body["k"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValidationError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= MAX_K:
        raise ValidationError(f"k must be in [1, {MAX_K}], got {k!r}")
    request: Dict[str, Any] = {
        "k": k, "epsilon": validate_epsilon(body["epsilon"]),
    }
    if "noise" in body:
        noise = body["noise"]
        if noise not in ALLOWED_NOISE:
            raise ValidationError(
                f"noise must be one of {list(ALLOWED_NOISE)}, got {noise!r}"
            )
        request["noise"] = noise
    if "planner" in body:
        # Resolve eagerly: a typo'd planner must fail the request
        # before admission/charging, and the resolved object is what
        # the session's release path consumes.
        request["planner"] = resolve_planner(body["planner"])
    if "trace" in body:
        trace = body["trace"]
        if not isinstance(trace, bool):
            raise ValidationError(
                f"trace must be a JSON boolean, got {trace!r}"
            )
        request["trace"] = trace
    return request


def parse_batch_request(body: Any) -> List[Dict[str, Any]]:
    """Validate a batch body's ``requests`` list (all-or-nothing).

    Every entry is validated before any is served, so a malformed
    request in the middle of a batch cannot leave earlier releases
    already charged.
    """
    body = _require_mapping(body, "batch request")
    requests = body.get("requests")
    if not isinstance(requests, list) or not requests:
        raise ValidationError(
            "batch request needs a non-empty 'requests' list"
        )
    if len(requests) > MAX_BATCH:
        raise ValidationError(
            f"batch size {len(requests)} exceeds the maximum {MAX_BATCH}"
        )
    return [parse_release_request(entry) for entry in requests]


def parse_ingest_request(body: Any) -> List[List[int]]:
    """Validate an ingest body's ``transactions`` list.

    Each transaction is a (possibly empty) JSON array of non-negative
    integer item ids.  Size limits are enforced here
    (:data:`MAX_INGEST_TRANSACTIONS`, :data:`MAX_TRANSACTION_ITEMS`);
    vocabulary bounds are checked downstream against the dataset's
    fixed ``num_items``, so an out-of-vocabulary item still answers
    ``validation_error`` without this layer knowing the dataset.  The
    whole batch is validated before any of it is appended —
    ingestion, like batches, is all-or-nothing.
    """
    body = _require_mapping(body, "ingest request")
    unknown = set(body) - {"tenant", "transactions"}
    if unknown:
        raise ValidationError(
            f"unknown ingest request keys {sorted(unknown)}; "
            f"allowed: ['tenant', 'transactions']"
        )
    transactions = body.get("transactions")
    if not isinstance(transactions, list) or not transactions:
        raise ValidationError(
            "ingest request needs a non-empty 'transactions' list"
        )
    if len(transactions) > MAX_INGEST_TRANSACTIONS:
        raise ValidationError(
            f"ingest batch of {len(transactions)} transactions exceeds "
            f"the maximum {MAX_INGEST_TRANSACTIONS}; split the feed "
            f"into smaller requests"
        )
    parsed: List[List[int]] = []
    for index, transaction in enumerate(transactions):
        if not isinstance(transaction, list):
            raise ValidationError(
                f"transactions[{index}] must be an array of item ids, "
                f"got {type(transaction).__name__}"
            )
        if len(transaction) > MAX_TRANSACTION_ITEMS:
            raise ValidationError(
                f"transactions[{index}] has {len(transaction)} items; "
                f"the maximum is {MAX_TRANSACTION_ITEMS}"
            )
        row: List[int] = []
        for item in transaction:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ValidationError(
                    f"transactions[{index}] items must be integers, "
                    f"got {item!r}"
                )
            if item < 0:
                raise ValidationError(
                    f"transactions[{index}] has negative item id {item}"
                )
            row.append(item)
        parsed.append(row)
    return parsed


def parse_plan_query(query: Mapping[str, str]) -> Dict[str, Any]:
    """Validate ``GET /v1/plan`` query parameters.

    The query string carries ``k`` and ``epsilon`` (required),
    ``planner`` (a name; default ``paper``), and ``alphas`` (a
    comma-separated triple, required by ``planner=custom``).  Returns
    ``{"k": int, "epsilon": float, "planner": BudgetPlanner}`` — the
    planner resolved eagerly so typos answer ``unknown_planner``.
    Pricing is pure arithmetic over these parameters; nothing here
    (or downstream in plan building) reads any data.
    """
    raw_k = query.get("k", "")
    try:
        k = int(raw_k)
    except ValueError:
        raise ValidationError(
            f"plan queries need an integer ?k=, got {raw_k!r}"
        )
    raw_epsilon = query.get("epsilon", "")
    try:
        epsilon = float(raw_epsilon)
    except ValueError:
        raise ValidationError(
            f"plan queries need a numeric ?epsilon=, got {raw_epsilon!r}"
        )
    if not 1 <= k <= MAX_K:
        raise ValidationError(f"k must be in [1, {MAX_K}], got {k}")
    if not 0 < epsilon < float("inf"):
        raise ValidationError(
            f"epsilon must be positive and finite, got {raw_epsilon!r}"
        )
    spec: Dict[str, Any] = {"name": query.get("planner", "paper")}
    if "alphas" in query:
        parts = query["alphas"].split(",")
        try:
            spec["alphas"] = [float(part) for part in parts]
        except ValueError:
            raise ValidationError(
                f"?alphas= must be comma-separated numbers, "
                f"got {query['alphas']!r}"
            )
    return {"k": k, "epsilon": epsilon, "planner": resolve_planner(spec)}


def result_to_wire(
    result: PrivateFIMResult, include_trace: bool = False
) -> Dict[str, Any]:
    """Serialize a release result into the response payload.

    Only the published statistics go on the wire: itemsets with their
    noisy counts/frequencies, plus ``k``/``epsilon``/``method`` echo
    and — when the serving session pinned one — the
    ``snapshot_version`` the release was computed on, so a client
    following a live ingest feed can attribute every output to one
    exact data state.  Diagnostics like the basis set or the budget
    ledger stay server-side — they are either derivable from the
    output or internal accounting, and the response contract should
    not depend on which pipeline produced the release.

    The per-stage execution trace is the one opt-in exception
    (``include_trace``, driven by the request's ``trace`` flag): it
    contains only public parameters and already-released DP outputs
    (see :mod:`repro.pipeline.trace`), so exposing it leaks nothing.
    """
    payload: Dict[str, Any] = {
        "method": result.method,
        "k": result.k,
        "epsilon": result.epsilon,
        "itemsets": [
            {
                "items": list(entry.itemset),
                "noisy_count": entry.noisy_count,
                "noisy_frequency": entry.noisy_frequency,
            }
            for entry in result.itemsets
        ],
    }
    if result.snapshot_version is not None:
        payload["snapshot_version"] = result.snapshot_version
    trace = getattr(result, "trace", None)
    if include_trace and trace is not None:
        payload["trace"] = trace.to_wire()
    return payload
