"""Span self-time subtraction, span recording and attribution."""

import asyncio
import contextvars

import layers
from spans import Span, SpanRecorder, merged_cover, self_times


def span(span_id, name, start, end, parent=None, request="r"):
    return Span(span_id, name, start, end, parent, request)


def test_self_time_subtracts_the_children():
    spans = [span(1, "root", 0.0, 10.0), span(2, "a", 1.0, 4.0, 1),
             span(3, "b", 5.0, 6.0, 1), span(4, "leaf", 2.0, 3.0, 2)]
    own = self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}
    assert sum(own.values()) == spans[0].duration


def test_overlapping_children_are_merged_not_double_counted():
    spans = [span(1, "root", 0.0, 10.0), span(2, "a", 1.0, 5.0, 1),
             span(3, "b", 3.0, 7.0, 1)]
    assert self_times(spans)[1] == 4.0


def test_children_are_clipped_to_the_parent_interval():
    assert merged_cover([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    assert merged_cover([], 0.0, 10.0) == 0.0


def test_recorder_nests_spans_and_carries_the_request_id():
    recorder = SpanRecorder()

    def inner():
        return 7

    traced_inner = recorder.wrap("inner", inner)
    traced_outer = recorder.wrap("outer", lambda: traced_inner())
    recorder.request.set("req-1")
    assert traced_outer() == 7
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert {s.request for s in recorder.spans} == {"req-1"}


def test_recorder_patches_coroutine_methods():
    class Owner:
        async def call(self, value):
            await asyncio.sleep(0)
            return value * 2

    recorder = SpanRecorder()
    recorder.patch(Owner, "call", "owner.call")
    assert asyncio.run(Owner().call(4)) == 8
    assert [s.name for s in recorder.spans] == ["owner.call"]


def test_attribution_adds_up_inside_handler_trees():
    recorder = SpanRecorder()
    work = recorder.wrap("session.release", lambda: sum(range(1000)))
    handler = recorder.wrap("service.dispatch", lambda: work())
    context = contextvars.copy_context()
    context.run(recorder.request.set, "window-0")
    context.run(handler)
    trace = layers.aggregate(recorder.spans, recorder.counters, (0.0, {}))
    handler_s, self_s, requests = layers.attribution(trace)
    assert requests == 1
    assert abs(handler_s - self_s) < 1e-9
    assert layers.attribution_holds(trace)
    assert trace["spans"]["window"]["session.release"][0] == 1
