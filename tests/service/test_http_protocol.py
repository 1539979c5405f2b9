"""Unit tests for the HTTP framing and the JSON wire protocol."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.result import NoisyItemset, PrivateFIMResult
from repro.errors import ValidationError
from repro.service import http
from repro.service.protocol import (
    parse_batch_request,
    parse_release_request,
    result_to_wire,
)


def parse_bytes(raw: bytes):
    """Run ``read_request`` over an in-memory byte stream."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await http.read_request(reader)

    return asyncio.run(scenario())


class TestRequestParsing:
    def test_post_with_json_body(self):
        request = parse_bytes(
            b"POST /v1/release HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 26\r\n"
            b"\r\n"
            b'{"k": 5, "epsilon": 0.25}\n'
        )
        assert request.method == "POST"
        assert request.path == "/v1/release"
        assert request.json() == {"k": 5, "epsilon": 0.25}
        assert request.keep_alive

    def test_get_with_query_string(self):
        request = parse_bytes(
            b"GET /v1/budget?tenant=alice&x=1 HTTP/1.1\r\n\r\n"
        )
        assert request.path == "/v1/budget"
        assert request.query == {"tenant": "alice", "x": "1"}

    def test_connection_close_header(self):
        request = parse_bytes(
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_connection_close_is_case_insensitive(self):
        # RFC 9110: connection options compare case-insensitively.
        request = parse_bytes(
            b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse_bytes(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(http.ProtocolError):
            parse_bytes(b"NONSENSE\r\n\r\n")

    def test_non_http_version(self):
        with pytest.raises(http.ProtocolError):
            parse_bytes(b"GET / SPDY/3\r\n\r\n")

    def test_chunked_bodies_rejected(self):
        with pytest.raises(http.ProtocolError):
            parse_bytes(
                b"POST /v1/release HTTP/1.1\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )

    def test_oversized_body_rejected(self):
        huge = http.MAX_BODY_BYTES + 1
        with pytest.raises(http.ProtocolError) as info:
            parse_bytes(
                b"POST /v1/release HTTP/1.1\r\n"
                + f"Content-Length: {huge}\r\n\r\n".encode()
            )
        assert info.value.status == 413

    @pytest.mark.parametrize(
        "value", ["1_0", "+10", "-0", "0x10", "1e1", "\xb2", "", "10;x"]
    )
    def test_content_length_must_be_ascii_digits(self, value):
        with pytest.raises(http.ProtocolError) as info:
            parse_bytes(
                b"POST /v1/release HTTP/1.1\r\n"
                + f"Content-Length: {value}\r\n\r\n".encode("latin-1")
                + b"x" * 10
            )
        assert info.value.status == 400

    def test_content_length_past_int_digit_limit(self):
        with pytest.raises(http.ProtocolError) as info:
            parse_bytes(
                b"POST /v1/release HTTP/1.1\r\n"
                + b"Content-Length: " + b"9" * 5000 + b"\r\n\r\n"
            )
        assert info.value.status == 413

    @pytest.mark.parametrize(
        "target", ["//[x/v1/budget", "http://[::1/healthz", "//]x["]
    )
    def test_unparseable_target(self, target):
        with pytest.raises(http.ProtocolError) as info:
            parse_bytes(f"GET {target} HTTP/1.1\r\n\r\n".encode())
        assert info.value.status == 400

    def test_invalid_json_body(self):
        request = parse_bytes(
            b"POST /v1/release HTTP/1.1\r\n"
            b"Content-Length: 4\r\n\r\nnope"
        )
        with pytest.raises(http.ProtocolError):
            request.json()


class TestResponseRoundtrip:
    def test_write_then_read_response(self):
        async def scenario():
            reader = asyncio.StreamReader()

            class FakeWriter:
                def write(self, data: bytes) -> None:
                    reader.feed_data(data)

            http.write_response(FakeWriter(), 403, {"error": "x"})
            reader.feed_eof()
            return await http.read_response(reader)

        status, payload = asyncio.run(scenario())
        assert status == 403
        assert payload == {"error": "x"}

    def test_non_json_float_answers_a_json_500(self):
        written = []

        class FakeWriter:
            def write(self, data: bytes) -> None:
                written.append(data)

        http.write_response(FakeWriter(), 200, {"spent": float("inf")})
        head, _, body = b"".join(written).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 500 ")
        payload = json.loads(body, parse_constant=_refuse_constant)
        assert payload["error"] == "internal_error"

    def test_request_with_non_json_float_is_refused(self):
        class FakeWriter:
            def write(self, data: bytes) -> None:
                raise AssertionError("nothing may be written")

        with pytest.raises(ValueError):
            http.write_request(
                FakeWriter(), "POST", "/v1/release",
                {"k": 5, "epsilon": float("nan")},
            )


def _refuse_constant(token: str):
    raise AssertionError(f"non-JSON token {token!r} on the wire")


class TestRouterEncoding:
    """The router encodes its own answers as strictly as a worker."""

    def test_healthz_and_metrics_never_emit_non_json_tokens(
        self, monkeypatch
    ):
        from repro.service.router import ClusterRouter

        router = ClusterRouter(
            {"alice": "d"}, info=lambda: {"limit": float("inf")}
        )

        async def metrics_payload():
            return {"workers": {"0": {"spent": float("nan")}}}

        monkeypatch.setattr(router, "metrics_payload", metrics_payload)
        for path in ("/healthz", "/metrics"):
            request = http.HTTPRequest("GET", path)
            status, body = asyncio.run(router.dispatch(request))
            assert status == 500, path
            payload = json.loads(body, parse_constant=_refuse_constant)
            assert payload["error"] == "internal_error"


class TestReleaseRequestValidation:
    def test_minimal_request(self):
        assert parse_release_request({"k": 10, "epsilon": 0.5}) == {
            "k": 10,
            "epsilon": 0.5,
        }

    def test_noise_passthrough(self):
        request = parse_release_request(
            {"k": 2, "epsilon": 1.0, "noise": "geometric"}
        )
        assert request["noise"] == "geometric"

    @pytest.mark.parametrize("key", ["seed", "rng"])
    def test_seeds_are_rejected(self, key):
        with pytest.raises(ValidationError, match="seed-less"):
            parse_release_request({"k": 2, "epsilon": 1.0, key: 7})

    @pytest.mark.parametrize(
        "body",
        [
            {"epsilon": 1.0},
            {"k": 5},
            {"k": 0, "epsilon": 1.0},
            {"k": True, "epsilon": 1.0},
            {"k": 2.7, "epsilon": 1.0},
            {"k": "many", "epsilon": 1.0},
            {"k": 5, "epsilon": True},
            {"k": 5, "epsilon": 0.0},
            {"k": 5, "epsilon": -1.0},
            {"k": 5, "epsilon": float("inf")},
            {"k": 5, "epsilon": "lots"},
            {"k": 5, "epsilon": 1.0, "noise": "gaussian"},
            {"k": 5, "epsilon": 1.0, "surprise": 1},
            [1, 2],
            "k=5",
        ],
    )
    def test_malformed_requests(self, body):
        with pytest.raises(ValidationError):
            parse_release_request(body)


class TestBatchValidation:
    def test_batch_ok(self):
        requests = parse_batch_request(
            {"requests": [{"k": 2, "epsilon": 0.1}, {"k": 3, "epsilon": 0.2}]}
        )
        assert [r["k"] for r in requests] == [2, 3]

    @pytest.mark.parametrize(
        "body",
        [
            {},
            {"requests": []},
            {"requests": "not-a-list"},
            {"requests": [{"k": 2}]},
        ],
    )
    def test_malformed_batches(self, body):
        with pytest.raises(ValidationError):
            parse_batch_request(body)

    def test_all_or_nothing_validation(self):
        # One bad entry rejects the whole batch before anything runs.
        with pytest.raises(ValidationError):
            parse_batch_request(
                {
                    "requests": [
                        {"k": 2, "epsilon": 0.1},
                        {"k": 2, "epsilon": -5},
                    ]
                }
            )


class TestResultSerialization:
    def test_result_to_wire(self):
        result = PrivateFIMResult(
            itemsets=[
                NoisyItemset((1, 3), 140.0, 0.7, 2.0),
                NoisyItemset((2,), 120.0, 0.6, 2.0),
            ],
            k=2,
            epsilon=0.5,
            method="privbasis",
        )
        wire = result_to_wire(result)
        assert wire["method"] == "privbasis"
        assert wire["k"] == 2
        assert wire["epsilon"] == 0.5
        assert wire["itemsets"][0] == {
            "items": [1, 3],
            "noisy_count": 140.0,
            "noisy_frequency": 0.7,
        }
        # Diagnostics (basis set, ledger) must not leak onto the wire.
        assert set(wire) == {"method", "k", "epsilon", "itemsets"}
