"""Raw HTTP bytes against the live servers.

The service and the cluster router read requests straight off a
socket, so any byte stream must end in one of two ways: a complete
HTTP response with a status below 500, or a clean close after the
client's EOF.  A parser error that escapes the connection handler
breaks that — the socket closes with no reply and asyncio logs
"Unhandled exception in client_connected_cb".

* ``TestUnparseableTarget`` pins two request targets ``urlsplit``
  rejects (an unclosed ``[`` host) on the service and on a router with
  no workers: both answer 400 ``protocol_error``.
* ``TestRawHTTPFuzz`` mutates the request line, headers and body of
  valid requests and sends each mutation to a live service.  Examples
  per run follow ``REPRO_PROPERTY_PROFILE`` (``nightly`` widens them).
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.service import PrivBasisService, TenantRegistry
from repro.service.router import ClusterRouter
from tests.pipeline.strategies import PROFILE
from tests.service.test_service_e2e import DATASET, small_database

#: Seconds a connection may take to answer and close.
TIMEOUT_S = 10.0

#: Fuzz examples by profile (``REPRO_PROPERTY_PROFILE``).
FUZZ_EXAMPLES = {"default": 100, "nightly": 5000}[PROFILE]

#: The two targets that used to drop the connection unanswered.
UNCLOSED_BRACKET_TARGETS = (
    b"GET //[x/v1/budget HTTP/1.1\r\n\r\n",
    b"GET http://[::1/healthz HTTP/1.1\r\n\r\n",
)


class LiveServer:
    """A service or router served from its own event loop thread.

    Exceptions the loop reports (an unhandled error in a connection
    callback among them) are collected in :attr:`errors`.
    """

    def __init__(self, server) -> None:
        self._server = server
        self.errors: List[dict] = []
        self._loop = asyncio.new_event_loop()
        self._loop.set_exception_handler(
            lambda loop, context: self.errors.append(context)
        )
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True
        )
        self._thread.start()
        self.host, self.port = self.call(server.start("127.0.0.1", 0))

    def call(self, coro):
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout=TIMEOUT_S)

    def settle(self) -> bool:
        """Wait for every connection handler to finish; ``False`` if
        one is still running after the timeout."""

        async def wait() -> bool:
            current = asyncio.current_task()
            pending = [
                task for task in asyncio.all_tasks() if task is not current
            ]
            if pending:
                _, pending = await asyncio.wait(
                    pending, timeout=TIMEOUT_S / 2
                )
            # Done callbacks (the loop's error report) run on the
            # following iterations.
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            return not pending

        return self.call(wait())

    def close(self) -> None:
        self.call(self._server.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=TIMEOUT_S)
        self._loop.close()


@pytest.fixture(scope="module")
def live_service():
    registry = TenantRegistry.from_mapping(
        {"alice": {"dataset": DATASET, "epsilon_limit": 2.0}}
    )
    database = small_database()
    server = LiveServer(
        PrivBasisService(registry, dataset_loader=lambda name: database)
    )
    yield server
    server.close()


@pytest.fixture(scope="module")
def live_router():
    server = LiveServer(ClusterRouter({"alice": DATASET}))
    yield server
    server.close()


def exchange(server: LiveServer, raw: bytes) -> bytes:
    """Send ``raw``, half-close, and read until the server closes."""
    received = []
    with socket.create_connection(
        (server.host, server.port), timeout=TIMEOUT_S
    ) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # answered and closed before reading everything
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            received.append(chunk)
    return b"".join(received)


def parse_responses(data: bytes) -> List[Tuple[int, object]]:
    """Split a byte stream into complete ``(status, JSON body)`` pairs;
    fails on a truncated response or trailing bytes."""
    responses = []
    while data:
        head, separator, rest = data.partition(b"\r\n\r\n")
        assert separator, f"incomplete response head: {data[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        responses.append((int(status), json.loads(rest[:length])))
        data = rest[length:]
    return responses


def assert_answered(
    server: LiveServer, raw: bytes
) -> List[Tuple[int, object]]:
    """The contract every connection must meet."""
    del server.errors[:]
    responses = parse_responses(exchange(server, raw))
    assert server.settle(), "a connection handler outlived the client"
    assert not server.errors, server.errors
    for status, payload in responses:
        assert status < 500, payload
        if status >= 400:
            assert isinstance(payload, dict) and "error" in payload
    # An empty first line reads as EOF between requests; anything else
    # is a request (or a malformed one) and must be answered.
    if raw and not raw.startswith(b"\r\n"):
        assert responses, f"no response to {raw[:200]!r}"
    return responses


class TestUnparseableTarget:
    @pytest.mark.parametrize("raw", UNCLOSED_BRACKET_TARGETS)
    def test_service_answers_protocol_error(self, live_service, raw):
        [(status, payload)] = assert_answered(live_service, raw)
        assert status == 400
        assert payload["error"] == "protocol_error"

    @pytest.mark.parametrize("raw", UNCLOSED_BRACKET_TARGETS)
    def test_router_answers_protocol_error(self, live_router, raw):
        [(status, payload)] = assert_answered(live_router, raw)
        assert status == 400
        assert payload["error"] == "protocol_error"


# ---------------------------------------------------------------------------
# Fuzz
# ---------------------------------------------------------------------------

def _json(payload) -> bytes:
    return json.dumps(payload).encode()


#: Valid requests the fuzz starts from: (method, target, body).
BASE_REQUESTS = (
    ("GET", "/healthz", b""),
    ("GET", "/metrics", b""),
    ("GET", "/v1/budget?tenant=alice", b""),
    ("GET", "/v1/plan?tenant=alice&k=5&epsilon=0.5&planner=adaptive", b""),
    ("GET", "/v1/results?tenant=alice", b""),
    ("GET", "/v1/snapshot?tenant=alice", b""),
    ("POST", "/v1/release",
     _json({"tenant": "alice", "k": 5, "epsilon": 0.02})),
    ("POST", "/v1/release_batch",
     _json({"tenant": "alice",
            "requests": [{"k": 3, "epsilon": 0.02}]})),
    ("POST", "/v1/ingest",
     _json({"tenant": "alice", "transactions": [[0, 1], [2]]})),
)

latin1_text = st.text(
    st.characters(min_codepoint=0, max_codepoint=255), max_size=24
)

odd_targets = st.sampled_from([
    "//[x/v1/budget", "http://[::1/healthz", "//]x[", "//[zz]/v1/budget",
    "*", "/", "", "/v1/plan?%zz=%", "/v1/budget?tenant=%ff%fe",
    "/v1/budget?tenant=alice&tenant=", "http://host/v1/budget?tenant=alice",
    "/v1/../v1/budget", "/v1/release#frag", "/" + "a" * 2000,
])

odd_lengths = st.sampled_from([
    "+10", "1_0", "-1", "0x10", "1e3", "", " ", "99999999999",
    "\xb2", "10, 10", "9" * 50,
])


def _mutate_bytes(draw, data: bytes) -> bytes:
    """Insert, delete or overwrite a few bytes at drawn positions."""
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(["insert", "delete", "replace"]))
        chunk = draw(st.binary(min_size=1, max_size=4))
        if action == "insert":
            data = data[:position] + chunk + data[position:]
        elif action == "delete":
            data = data[:position] + data[position + len(chunk):]
        else:
            data = data[:position] + chunk + data[position + len(chunk):]
    return data


#: Each mutation fires on one draw in six (and shrinks to "off"), so
#: a good share of examples keep valid framing and reach the handlers.
mutate = st.integers(0, 5).map(lambda roll: roll == 5)


@st.composite
def raw_requests(draw) -> bytes:
    method, target, body = draw(st.sampled_from(BASE_REQUESTS))

    # Request line.
    if draw(mutate):
        method = draw(
            st.sampled_from(["get", "PUT", "DELETE", "HEAD", "", "G ET"])
            | latin1_text
        )
    if draw(mutate):
        target = draw(odd_targets | latin1_text.map(target.__add__))
    if draw(mutate):
        version = draw(
            st.sampled_from(["HTTP/1.0", "HTTP/2", "HTTP/1.1 x", "", "http/1"])
        )
    else:
        version = "HTTP/1.1"

    # Body, changed before its Content-Length is taken, so a changed
    # body can still arrive with valid framing.
    if draw(mutate):
        body = draw(
            st.binary(max_size=64)
            | st.integers(0, len(body)).map(lambda cut: body[:cut])
        )
    if draw(mutate):
        body = _mutate_bytes(draw, body)

    # Headers.
    headers = [("Host", "privbasis"), ("Content-Type", "application/json")]
    length = str(len(body))
    if draw(mutate):
        length = draw(
            st.integers(0, len(body) + 8).map(str) | odd_lengths | st.none()
        )
    if length is not None:
        headers.append(("Content-Length", length))
    if draw(mutate):
        headers.append(
            ("Connection", draw(st.sampled_from(["close", "Close", "x"])))
        )
    if draw(mutate):
        headers.extend(
            draw(
                st.lists(
                    st.tuples(latin1_text, latin1_text)
                    | st.just(("Transfer-Encoding", "chunked")),
                    min_size=1,
                    max_size=2,
                )
            )
        )
    head_lines = [f"{method} {target} {version}"] + [
        f"{name}: {value}" for name, value in headers
    ]
    if draw(mutate):
        head_lines.append(draw(latin1_text))  # a line with no colon
    raw = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1") + body
    if draw(mutate):
        raw = _mutate_bytes(draw, raw)
    if draw(mutate):
        # A second request pipelined after the first.
        raw += draw(raw_requests())
    elif draw(mutate):
        raw += draw(st.sampled_from(BASE_REQUESTS))[0].encode() + b" "
    return raw


class TestRawHTTPFuzz:
    @settings(
        max_examples=FUZZ_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(raw=raw_requests())
    @example(raw=UNCLOSED_BRACKET_TARGETS[0])
    @example(raw=UNCLOSED_BRACKET_TARGETS[1])
    @example(raw=b"")
    @example(raw=b"GET /healthz HTTP/1.1\r\n")
    @example(
        raw=b"POST /v1/release HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n"
        b'{"k":5,"e"}'
    )
    def test_every_connection_is_answered(self, live_service, raw):
        assert_answered(live_service, raw)
