"""Exception hierarchy for the :mod:`repro` library.

All errors raised intentionally by the library derive from
:class:`ReproError`, so callers can catch a single base class.  More
specific subclasses exist for the two failure domains that matter in
practice: malformed inputs (:class:`ValidationError` and friends) and
privacy-budget accounting (:class:`BudgetError`).

Wire format
-----------
Every class carries a stable ``wire_code`` string so network layers
(:mod:`repro.service`) can map exceptions to machine-readable error
payloads without string-matching messages.  :func:`error_to_wire`
builds the payload; :func:`wire_code_for` returns just the code.
Codes are part of the service API contract — change them only with a
deprecation path.
"""

from __future__ import annotations

from typing import Any, Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    #: Stable machine-readable identifier used in service error
    #: payloads (see :func:`error_to_wire`).
    wire_code = "internal_error"


class ValidationError(ReproError, ValueError):
    """An argument or input dataset failed validation.

    Also derives from :class:`ValueError` so that generic callers that
    expect standard-library semantics keep working.
    """

    wire_code = "validation_error"


class DatasetFormatError(ValidationError):
    """A dataset file (e.g. FIMI ``.dat``) could not be parsed.

    Carries the offending ``source`` (file name or stream label) and
    one-based ``line`` when the parser knows them, so batch tooling
    can point at the broken record without string-matching messages.
    """

    wire_code = "dataset_format_error"

    def __init__(
        self,
        message: str,
        source: "Any" = None,
        line: "Any" = None,
    ) -> None:
        self.source = None if source is None else str(source)
        self.line = None if line is None else int(line)
        super().__init__(message)


class DatasetTruncatedError(DatasetFormatError):
    """A dataset stream ended mid-record (torn download, gzip member
    cut short, partial final chunk).

    Distinct from :class:`DatasetFormatError` because truncation is
    *retryable* — re-fetch the file — whereas a malformed token means
    the producer is wrong.  Loaders must raise this instead of
    silently keeping the prefix that happened to parse: a truncated
    log that loads "successfully" mis-counts every support from then
    on.
    """

    wire_code = "dataset_truncated"


class BudgetError(ReproError):
    """Base class for privacy-budget accounting failures."""

    wire_code = "budget_error"


class BudgetExceededError(BudgetError):
    """A mechanism tried to consume more budget than remains.

    Raised by :class:`repro.dp.budget.PrivacyBudget` when a ``spend``
    request would push the total consumption above the budget's ε.
    """

    wire_code = "budget_exceeded"

    def __init__(self, requested: float, remaining: float) -> None:
        self.requested = float(requested)
        self.remaining = float(remaining)
        super().__init__(
            f"requested epsilon {requested:g} exceeds remaining budget "
            f"{remaining:g}"
        )


class EmptySelectionError(ValidationError):
    """A selection mechanism was asked to choose from an empty domain."""

    wire_code = "empty_selection"


class UnknownPlannerError(ValidationError):
    """A release or plan request named a budget planner that does not
    exist.

    Raised by :func:`repro.pipeline.planner.resolve_planner` (and
    mapped to HTTP 400 with wire code ``unknown_planner``) so clients
    can distinguish a typo'd planner name from other validation
    failures and retry with one of ``known``.
    """

    wire_code = "unknown_planner"

    def __init__(self, planner: str, known=()) -> None:
        self.planner = str(planner)
        self.known = tuple(known)
        hint = f"; known planners: {list(self.known)}" if known else ""
        super().__init__(f"unknown planner {planner!r}{hint}")


class InvalidFractionsError(ValidationError):
    """A budget split was asked for with malformed fractions.

    Carries the offending ``fractions`` tuple and the ``reason`` so
    callers (the planner layer, the service) can report precisely
    which entry broke the split instead of string-matching messages.
    """

    wire_code = "validation_error"

    def __init__(self, fractions, reason: str) -> None:
        self.fractions = tuple(fractions)
        self.reason = str(reason)
        super().__init__(
            f"invalid budget fractions {self.fractions!r}: {reason}"
        )


class UnknownTenantError(ValidationError):
    """A service request named a tenant the registry does not know."""

    wire_code = "unknown_tenant"

    def __init__(self, tenant_id: str) -> None:
        self.tenant_id = str(tenant_id)
        super().__init__(f"unknown tenant {tenant_id!r}")


class IngestNotAllowedError(ReproError):
    """A tenant without ingest rights tried to append transactions.

    Raised (and mapped to HTTP 403) when a tenant whose registry entry
    sets ``"ingest": false`` calls ``POST /v1/ingest`` — read-only
    analysts may release over a dataset but not feed it.
    """

    wire_code = "ingest_forbidden"

    def __init__(self, tenant_id: str) -> None:
        self.tenant_id = str(tenant_id)
        super().__init__(
            f"tenant {tenant_id!r} is not allowed to ingest into its "
            f"dataset (configured read-only)"
        )


class StateStoreError(ReproError):
    """The durable state store is unusable or inconsistent.

    Raised by :mod:`repro.store` when the ``--state-dir`` layout is
    damaged beyond what write-ahead replay can tolerate — e.g. the
    path is not a directory, a checkpoint file is unreadable, or a
    replayed dataset log disagrees with the version it recorded.
    Torn WAL *tails* are NOT this error: those are expected after a
    crash and are dropped (and counted) during recovery.
    """

    wire_code = "state_store_error"


class TornSegmentError(StateStoreError):
    """A spilled shard segment failed its header/size check on attach.

    Raised by :mod:`repro.engine.mmap` when a memory-mapped shard
    file is missing, short, of another format version, or disagrees
    with the shape it was written with — the signature of disk
    corruption or outside tampering.  Carries the zero-based
    ``segments`` indices that failed, so the error names exactly the
    broken shards and nothing is counted over them.
    """

    wire_code = "torn_segment"

    def __init__(self, directory: "Any", segments, detail: str = "") -> None:
        self.directory = str(directory)
        self.segments = tuple(int(index) for index in segments)
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"torn shard segment(s) {list(self.segments)} under "
            f"{self.directory}{suffix}"
        )


class OverloadedError(ReproError):
    """The service's admission controller rejected a request.

    Raised (and mapped to HTTP 429) when accepting another release
    would exceed the configured in-flight bound.
    """

    wire_code = "overloaded"

    def __init__(self, in_flight: int, limit: int) -> None:
        self.in_flight = int(in_flight)
        self.limit = int(limit)
        super().__init__(
            f"{in_flight} releases in flight >= limit {limit}; retry later"
        )


class WorkerUnavailableError(ReproError):
    """The cluster router lost the worker handling a request.

    Raised (and mapped to HTTP 503 ``worker_unavailable``) by
    :mod:`repro.service.router` when the worker process that owned a
    request dies before answering.  Safe reads (``GET``) are retried
    on surviving workers before this surfaces; spending requests
    (``POST``) are **never** retried — a retry could double-charge ε —
    so the client sees this error and must decide, knowing the debit
    may or may not have been journaled (check ``GET /v1/budget``; the
    invariant direction guarantees at worst an over-count, never a
    free release).
    """

    wire_code = "worker_unavailable"

    def __init__(self, detail: str = "") -> None:
        self.detail = str(detail)
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"the worker serving this request is unavailable{suffix}"
        )


def wire_code_for(error: BaseException) -> str:
    """The stable wire code for ``error`` (``internal_error`` for
    anything outside the :class:`ReproError` hierarchy)."""
    return getattr(error, "wire_code", ReproError.wire_code)


def error_to_wire(error: BaseException) -> Dict[str, Any]:
    """Serialize ``error`` into the service's JSON error payload.

    The payload always has ``error`` (the wire code) and ``message``;
    typed exceptions contribute their structured fields so clients can
    react without parsing messages (e.g. ``remaining`` on a
    :class:`BudgetExceededError` tells an analyst how much ε is left).
    """
    payload: Dict[str, Any] = {
        "error": wire_code_for(error),
        "message": str(error),
    }
    if isinstance(error, BudgetExceededError):
        payload["requested"] = error.requested
        payload["remaining"] = error.remaining
    if isinstance(error, (UnknownTenantError, IngestNotAllowedError)):
        payload["tenant"] = error.tenant_id
    if isinstance(error, UnknownPlannerError):
        payload["planner"] = error.planner
        payload["known"] = list(error.known)
    if isinstance(error, OverloadedError):
        payload["in_flight"] = error.in_flight
        payload["limit"] = error.limit
    if isinstance(error, DatasetFormatError):
        if error.source is not None:
            payload["source"] = error.source
        if error.line is not None:
            payload["line"] = error.line
    if isinstance(error, TornSegmentError):
        payload["directory"] = error.directory
        payload["segments"] = list(error.segments)
    return payload
