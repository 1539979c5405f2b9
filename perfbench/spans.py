"""In-memory span recorder and self-time arithmetic for traced runs.

The benchmark records spans from its own files, around calls into the
layers of the program (see ``instrument.py``); nothing in ``src/`` is
changed.  A span is ``(name, start, end, parent, request)``: ``parent``
is the id of the span that was open in the same context when this one
started, and ``request`` is the request id carried in a context
variable, so one HTTP request's spans form a tree.

Spans started on a thread with no propagated context (for example the
shard worker threads of the sharded backend) have no parent.  They
still count toward their layer's totals but sit outside any request
tree, so they never double-count the time their caller spent waiting.

A span's self time is its duration minus the part of its interval that
its child spans cover (overlapping children are merged first).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One recorded span (times from ``time.perf_counter``)."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collect spans in memory; write them out once, at the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self.request = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self.counters: Dict[str, int] = {}
        self._counter_lock = threading.Lock()

    def next_id(self) -> int:
        """A fresh span id (thread-safe under the GIL)."""
        return next(self._ids)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (thread-safe)."""
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str) -> Tuple[int, Optional[int], object, float]:
        """Start a span; returns the token :meth:`close` needs."""
        span_id = self.next_id()
        parent = self.current.get()
        token = self.current.set(span_id)
        return span_id, parent, token, time.perf_counter()

    def close(self, name: str, opened) -> None:
        """End the span :meth:`open` started and record it."""
        span_id, parent, token, start = opened
        end = time.perf_counter()
        self.current.reset(token)
        self.spans.append(
            Span(span_id, name, start, end, parent, self.request.get())
        )

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        if asyncio.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                opened = self.open(name)
                try:
                    return await function(*args, **kwargs)
                finally:
                    self.close(name, opened)

            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            opened = self.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                self.close(name, opened)

        return traced

    def patch(self, owner: object, attribute: str, name: str,
              wrapper: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` by a traced version.

        ``wrapper`` overrides the default :meth:`wrap` when a call site
        needs more than a span (a counter, a context hand-off).
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) \
            else getattr(owner, attribute)
        setattr(owner, attribute, (wrapper or self.wrap)(name, original))


def merged_cover(intervals: Iterable[Tuple[float, float]],
                 start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for lo, hi in intervals
        if min(hi, end) > max(lo, start)
    )
    covered = 0.0
    run_lo = run_hi = None
    for lo, hi in clipped:
        if run_hi is None or lo > run_hi:
            if run_hi is not None:
                covered += run_hi - run_lo
            run_lo, run_hi = lo, hi
        else:
            run_hi = max(run_hi, hi)
    if run_hi is not None:
        covered += run_hi - run_lo
    return covered


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Map each span id to the spans whose parent it is."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time (seconds) of every span, keyed by span id."""
    children = children_of(spans)
    return {
        span.span_id: span.duration - merged_cover(
            ((child.start, child.end)
             for child in children.get(span.span_id, ())),
            span.start, span.end,
        )
        for span in spans
    }


def subtree(root: Span, children: Dict[int, List[Span]]) -> List[Span]:
    """``root`` and every span below it."""
    found, stack = [], [root]
    while stack:
        span = stack.pop()
        found.append(span)
        stack.extend(children.get(span.span_id, ()))
    return found
