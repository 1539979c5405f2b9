"""Fuzz the release request parsers with arbitrary JSON values.

``parse_release_request`` and ``parse_batch_request`` guard every
release entry point, so a malformed body must fail there with a typed
:class:`~repro.errors.ReproError` (a 400-class answer), never with a
bare ``TypeError``/``OverflowError`` that the service would report as
a 500 ``internal_error``.  Bodies mix wholly arbitrary JSON with
release-shaped objects, so the checks past the key filter (``k``,
``epsilon``, ``noise``, ``planner``, ``trace``) are reached too.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.pipeline.planner import planner_names
from repro.service.protocol import parse_batch_request, parse_release_request
from tests.pipeline.strategies import PROFILE

#: Examples per fuzz test by profile (``REPRO_PROPERTY_PROFILE``).
FUZZ_EXAMPLES = {"default": 100, "nightly": 2000}[PROFILE]

#: Scalars JSON (as Python's ``json`` module reads it) can carry:
#: integers far past the float range and NaN/Infinity included.
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.floats()
    | st.text(max_size=8)
)

json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

planner_specs = json_values | st.sampled_from(planner_names()) | (
    st.fixed_dictionaries(
        {"name": st.sampled_from(planner_names()) | json_values},
        optional={
            "alphas": json_values
            | st.lists(scalars | st.floats(0, 1), min_size=2, max_size=4)
        },
    )
)

release_bodies = st.fixed_dictionaries(
    {
        "k": st.integers(min_value=-5, max_value=20_000) | json_values,
        "epsilon": scalars,
    },
    optional={
        "planner": planner_specs,
        "noise": st.sampled_from(["laplace", "geometric"]) | json_values,
        "trace": json_values,
        "tenant": json_values,
        "seed": json_values,
    },
)

bodies = json_values | release_bodies


def parses_or_raises_typed(parser, body) -> None:
    try:
        parser(body)
    except ReproError:
        pass


@given(bodies)
@example({"k": 5, "epsilon": 10 ** 400})
@example(
    {"k": 5, "epsilon": 1,
     "planner": {"name": "custom", "alphas": [None, 0.5, 0.5]}}
)
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
def test_release_parser_raises_only_typed_errors(body):
    parses_or_raises_typed(parse_release_request, body)


@given(
    json_values
    | st.fixed_dictionaries(
        {"requests": st.lists(bodies, max_size=4) | json_values}
    )
)
@settings(max_examples=FUZZ_EXAMPLES, deadline=None)
def test_batch_parser_raises_only_typed_errors(body):
    parses_or_raises_typed(parse_batch_request, body)
