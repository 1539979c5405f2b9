"""Cross-release reuse: answer ``(k', ε')`` from a stored ``(k, ε)``
release by post-processing, without touching data or spending budget.

Differential privacy's post-processing theorem says any function of an
already-published ε-DP output is itself ε-DP *at no additional cost*.
A stored top-``k`` release therefore answers a later ``(k', ε')``
request for free whenever the request is **covered** by the stored
one — the explicit utility bound this module owns:

* **coverage** — ``k' ≤ k``: the stored release already ranks at
  least ``k'`` itemsets, so truncating it publishes nothing new;
* **accuracy** — ``ε' ≤ ε``: the noise in the stored counts has scale
  ``∝ 1/ε``, so a release bought with ``ε ≥ ε'`` is at least as
  accurate as what spending ``ε'`` fresh would buy.  Serving it
  *over-delivers* utility and charges nothing;
* **freshness carve-out** — ``(k', ε') ≠ (k, ε)``: a byte-identical
  repeat of a stored request is deliberately served by a fresh
  pipeline run.  The service's wire contract promises every release
  its own randomness (coalesced identical requests must return
  distinct outputs), and a client repeating its exact request is
  asking for a re-draw, not a re-read.  Strictly dominated requests
  carry no such promise and are served at ε = 0.

Scoping: a stored release is only ever reused for the **same dataset
at the same snapshot version** (a truncation of version-``v`` counts
says nothing about version-``v+1`` data) and — enforced one layer up,
in :class:`repro.store.results.ResultStore` and the service — only
for the **same tenant** (reuse across tenants would hand tenant B an
answer tenant A paid for, collapsing per-tenant accounting).  See
``docs/privacy-accounting.md`` for the full soundness argument.

The post-processor itself is :func:`top_k_truncate`: re-rank the
stored itemsets by noisy frequency (deterministic tie-break on the
items) and keep the first ``k'``.  It is a pure function of the
stored payload — bit-identical across calls, zero data access — which
the property suite (``tests/pipeline/test_reuse_properties.py``)
pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ValidationError

__all__ = [
    "ReuseDecision",
    "ReuseIndex",
    "StoredRelease",
    "reuse_covers",
    "top_k_truncate",
]

#: Relative tolerance for the ε comparisons (wire floats round-trip
#: exactly, but composed arithmetic may wobble in the last ulp).
EPSILON_RTOL = 1e-9

#: Stored releases kept per (dataset, snapshot_version) key.  The
#: index holds a dominance *frontier* (no entry covers another), so
#: this bound is rarely binding; it caps adversarial request mixes.
MAX_ENTRIES_PER_KEY = 32


@dataclass(frozen=True)
class StoredRelease:
    """One stored release the index can answer requests from.

    ``payload`` is the wire-shaped published output (``method`` /
    ``k`` / ``epsilon`` / ``itemsets`` with items, noisy_count,
    noisy_frequency) — exactly what left the process when the release
    was paid for, and the *only* thing reuse ever reads.
    """

    dataset: str
    snapshot_version: int
    k: int
    epsilon: float
    payload: Mapping[str, Any]
    #: Insertion order within the index (deterministic tie-break).
    seq: int = 0

    def describe(self) -> Dict[str, Any]:
        """The ``source`` block of a wire ``reuse`` payload."""
        return {
            "k": self.k,
            "epsilon": self.epsilon,
            "snapshot_version": self.snapshot_version,
        }


@dataclass(frozen=True)
class ReuseDecision:
    """The outcome of one reuse lookup."""

    hit: bool
    reason: str
    source: Optional[StoredRelease] = None
    #: The ε the request would have cost as a fresh run (0 on a miss).
    epsilon_saved: float = 0.0


def _same_epsilon(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=EPSILON_RTOL, abs_tol=0.0)


def reuse_covers(
    stored_k: int, stored_epsilon: float, k: int, epsilon: float
) -> bool:
    """The utility bound: may a stored ``(k, ε)`` serve ``(k', ε')``?

    True iff ``k' ≤ k`` and ``ε' ≤ ε`` and the request is not a
    byte-identical repeat of the stored release (the freshness
    carve-out; see the module docstring).  Pure arithmetic — callers
    layer dataset/snapshot/tenant scoping on top.
    """
    if k < 1 or not (epsilon > 0):
        return False
    if k > stored_k:
        return False
    if epsilon > stored_epsilon * (1 + EPSILON_RTOL):
        return False
    if k == stored_k and _same_epsilon(epsilon, stored_epsilon):
        return False
    return True


def top_k_truncate(
    payload: Mapping[str, Any], k: int, epsilon: float
) -> Dict[str, Any]:
    """Post-process a stored payload into a ``(k', ε')`` answer.

    Re-ranks the stored itemsets by decreasing noisy frequency (ties
    broken on the item tuple, so the output is a pure deterministic
    function of the payload), keeps the first ``k'``, and re-stamps
    the ``k``/``epsilon`` echo to the request's values.  The noisy
    statistics themselves are copied verbatim — post-processing never
    re-noises.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if not (float(epsilon) > 0):
        raise ValidationError(
            f"epsilon must be positive, got {epsilon!r}"
        )
    stored_k = payload.get("k")
    if isinstance(stored_k, int) and k > stored_k:
        raise ValidationError(
            f"cannot truncate a k={stored_k} release to k={k}; "
            f"reuse requires k' <= k"
        )
    entries = [dict(entry) for entry in payload.get("itemsets", ())]
    entries.sort(
        key=lambda entry: (
            -float(entry["noisy_frequency"]),
            tuple(entry["items"]),
        )
    )
    truncated: Dict[str, Any] = {
        "method": payload.get("method", "privbasis"),
        "k": k,
        "epsilon": float(epsilon),
        "itemsets": entries[:k],
    }
    if "snapshot_version" in payload:
        truncated["snapshot_version"] = payload["snapshot_version"]
    return truncated


def _dominates(a: StoredRelease, b: StoredRelease) -> bool:
    """Whether every request ``b`` can serve, ``a`` can serve too."""
    return a.k >= b.k and a.epsilon >= b.epsilon * (1 - EPSILON_RTOL)


@dataclass
class ReuseIndex:
    """Stored releases indexed by ``(dataset, snapshot_version)``.

    Each key holds a dominance frontier: an entry both smaller in
    ``k`` and poorer in ``ε`` than another serves no request the
    other cannot, so it is dropped on insertion and the index stays
    bounded regardless of traffic.  Lookups apply
    :func:`reuse_covers` and pick the *tightest* qualifying source
    (smallest ``k``, then smallest ``ε``) so a hit reveals no more of
    the stored history than the request needs.

    One index instance scopes one principal — the result store keeps
    one per tenant — so tenant isolation is structural, not a filter.
    """

    max_entries_per_key: int = MAX_ENTRIES_PER_KEY
    _frontier: Dict[Tuple[str, int], List[StoredRelease]] = field(
        default_factory=dict
    )
    _seq: int = 0
    _invalidated: int = 0

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._frontier.values())

    def add(
        self,
        dataset: str,
        snapshot_version: Optional[int],
        payload: Mapping[str, Any],
    ) -> bool:
        """Index one released payload; returns whether it was kept.

        Payloads that do not look like releases (no positive integer
        ``k``, no positive ``epsilon``, no ``itemsets`` list) are
        ignored rather than rejected — the store feeds every record
        type through here.
        """
        k = payload.get("k")
        epsilon = payload.get("epsilon")
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            return False
        if (
            isinstance(epsilon, bool)
            or not isinstance(epsilon, (int, float))
            or not (float(epsilon) > 0)
        ):
            return False
        if not isinstance(payload.get("itemsets"), (list, tuple)):
            return False
        key = (str(dataset), int(snapshot_version or 0))
        entries = self._frontier.setdefault(key, [])
        candidate = StoredRelease(
            dataset=key[0],
            snapshot_version=key[1],
            k=k,
            epsilon=float(epsilon),
            payload=dict(payload),
            seq=self._seq,
        )
        for existing in entries:
            if _dominates(existing, candidate):
                # Nothing the new release can serve that the kept one
                # cannot (an exact duplicate lands here too: the first
                # stored copy stays, deterministically).
                return False
        entries[:] = [
            existing
            for existing in entries
            if not _dominates(candidate, existing)
        ]
        entries.append(candidate)
        self._seq += 1
        if len(entries) > self.max_entries_per_key:
            # Frontier entries are pairwise incomparable; shed the one
            # with the least coverage (smallest k, then smallest ε).
            entries.sort(key=lambda entry: (entry.k, entry.epsilon))
            del entries[0]
        return True

    def lookup(
        self,
        dataset: str,
        snapshot_version: Optional[int],
        k: int,
        epsilon: float,
    ) -> ReuseDecision:
        """Decide whether a stored release covers ``(k, ε)``."""
        key = (str(dataset), int(snapshot_version or 0))
        entries = self._frontier.get(key, ())
        if not entries:
            return ReuseDecision(
                hit=False,
                reason=(
                    f"no stored release for dataset "
                    f"{key[0]!r} at snapshot {key[1]}"
                ),
            )
        qualifying = [
            entry
            for entry in entries
            if reuse_covers(entry.k, entry.epsilon, k, epsilon)
        ]
        if not qualifying:
            identical = any(
                entry.k == k and _same_epsilon(entry.epsilon, epsilon)
                for entry in entries
            )
            if identical:
                reason = (
                    "identical (k, epsilon) re-requested: served by "
                    "a fresh run (freshness contract)"
                )
            else:
                reason = (
                    f"no stored release covers (k={k}, "
                    f"epsilon={epsilon:g})"
                )
            return ReuseDecision(hit=False, reason=reason)
        source = min(
            qualifying,
            key=lambda entry: (entry.k, entry.epsilon, entry.seq),
        )
        return ReuseDecision(
            hit=True,
            reason=(
                f"covered by stored (k={source.k}, "
                f"epsilon={source.epsilon:g}) at snapshot "
                f"{source.snapshot_version}"
            ),
            source=source,
            epsilon_saved=float(epsilon),
        )

    def invalidate_before(self, dataset: str, version: int) -> int:
        """Drop entries for ``dataset`` older than ``version``.

        Ingest advances the snapshot; entries pinned to earlier
        versions can never serve the new version (lookups key on the
        exact version), so this is memory hygiene with an exactness
        contract the property suite pins: entries at ``version`` or
        later — and other datasets' entries — survive untouched.
        Returns the number of entries dropped.
        """
        dataset = str(dataset)
        dropped = 0
        for key in [
            key
            for key in self._frontier
            if key[0] == dataset and key[1] < int(version)
        ]:
            dropped += len(self._frontier.pop(key))
        self._invalidated += dropped
        return dropped

    def stats(self) -> Dict[str, int]:
        """Index telemetry for ``/metrics`` and store stats."""
        return {
            "entries": len(self),
            "keys": len(self._frontier),
            "invalidated": self._invalidated,
        }
