"""One ε rule for every entry point: real numbers by type, positive,
finite.

A numeric string is not an ε: ``float("1.0")`` would turn a typo'd
caller into a published release.  The library entry points and the
service wire share :func:`repro.pipeline.plan.validate_epsilon`, so the
same inputs are refused everywhere and the wire keeps its messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PrivBasisSession, privbasis
from repro.baselines.tf import tf_method
from repro.errors import ValidationError
from repro.pipeline.plan import validate_epsilon
from repro.service.protocol import parse_release_request

NOT_NUMBERS = ["1.0", b"1", None]


@pytest.mark.parametrize("epsilon", NOT_NUMBERS)
class TestNonNumbersAreRefused:
    def test_privbasis(self, dense_db, epsilon):
        with pytest.raises(ValidationError, match="must be a number"):
            privbasis(dense_db, 5, epsilon, rng=0)

    def test_tf_method(self, dense_db, epsilon):
        with pytest.raises(ValidationError, match="must be a number"):
            tf_method(dense_db, k=5, epsilon=epsilon, m=1, rng=0)

    def test_session_release(self, dense_db, epsilon):
        session = PrivBasisSession(dense_db)
        with pytest.raises(ValidationError, match="must be a number"):
            session.release(k=5, epsilon=epsilon, rng=0)
        assert session.cache_info() == {}


@pytest.mark.parametrize(
    "epsilon", [1, 0.5, np.float64(0.5), np.float32(0.5), np.int64(2)]
)
def test_real_numbers_are_accepted(epsilon):
    value = validate_epsilon(epsilon)
    assert type(value) is float and value == float(epsilon)


@pytest.mark.parametrize(
    "epsilon, message",
    [
        (True, "epsilon must be a number, got True"),
        ("lots", "epsilon must be a number, got 'lots'"),
        ("1.0", "epsilon must be a number, got '1.0'"),
        (None, "epsilon must be a number, got None"),
        ([1.0], "epsilon must be a number, got [1.0]"),
        (0.0, "epsilon must be positive and finite, got 0.0"),
        (-1, "epsilon must be positive and finite, got -1"),
        (float("inf"), "epsilon must be positive and finite, got inf"),
        (float("nan"), "epsilon must be positive and finite, got nan"),
        (10**400, f"epsilon must be positive and finite, got {10**400!r}"),
    ],
)
def test_wire_answers_are_unchanged(epsilon, message):
    # The 400 body carries the ValidationError text verbatim.
    with pytest.raises(ValidationError) as raised:
        parse_release_request({"k": 5, "epsilon": epsilon})
    assert str(raised.value) == message


def test_wire_converts_integer_epsilon_to_float():
    request = parse_release_request({"k": 5, "epsilon": 2})
    assert request["epsilon"] == 2.0 and type(request["epsilon"]) is float
