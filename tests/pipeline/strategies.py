"""Shared hypothesis strategies for the reuse property suite.

Centralizes the generators so every property test draws the same
(k, ε) request shapes, and owns the example-budget profiles:

* ``default`` — the tier-1 budget, small enough for every CI run;
* ``nightly`` — widened example counts for the scheduled soak job.

Select with the ``REPRO_PROPERTY_PROFILE`` environment variable
(``default`` when unset).  An explicit env-var switch, rather than
``--hypothesis-profile``, keeps the selection independent of plugin
import order.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.engine.backend import CountingBackend

__all__ = [
    "PROFILE",
    "SealableBackend",
    "epsilons",
    "ks",
    "request_pairs",
]

#: Per-test hypothesis example budgets by profile name.
_PROFILES = {"default": 20, "nightly": 150}

PROFILE = os.environ.get("REPRO_PROPERTY_PROFILE", "default")
if PROFILE not in _PROFILES:
    raise RuntimeError(
        f"REPRO_PROPERTY_PROFILE must be one of "
        f"{sorted(_PROFILES)}, got {PROFILE!r}"
    )

for _name, _examples in _PROFILES.items():
    settings.register_profile(
        _name,
        max_examples=_examples,
        # Pipeline runs inside an example take tens of ms — a wall
        # clock deadline would make the suite flaky on loaded CI.
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
settings.load_profile(PROFILE)

def ks(max_k: int = 20) -> st.SearchStrategy:
    return st.integers(min_value=1, max_value=max_k)


def epsilons() -> st.SearchStrategy:
    """Positive, finite, not-degenerate ε values."""
    return st.floats(
        min_value=0.05,
        max_value=4.0,
        allow_nan=False,
        allow_infinity=False,
    )


def request_pairs() -> st.SearchStrategy:
    """One ``(k, epsilon)`` release request."""
    return st.tuples(ks(), epsilons())


class SealableBackend(CountingBackend):
    """A counting backend that can be made to *prove* it is unused.

    Forwards every primitive to ``inner`` until :meth:`seal` is
    called; after that any data access raises.  The strongest form of
    the "reuse hits never touch data" property: a sealed session can
    only answer out of stored payloads.
    """

    def __init__(self, inner: CountingBackend) -> None:
        self._inner = inner
        self._sealed = False

    def seal(self) -> None:
        self._sealed = True

    def _check(self) -> None:
        if self._sealed:
            raise AssertionError(
                "sealed backend was queried: a reuse answer touched data"
            )

    @property
    def database(self):
        return self._inner.database

    def extend(self, delta) -> None:
        self._check()
        self._inner.extend(delta)

    def item_supports(self):
        self._check()
        return self._inner.item_supports()

    def pairwise_supports(self, items):
        self._check()
        return self._inner.pairwise_supports(items)

    def bin_counts_batch(self, bases):
        self._check()
        return self._inner.bin_counts_batch(bases)
