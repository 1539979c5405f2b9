"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

Just enough of RFC 9112 for a JSON API: request-line + headers +
``Content-Length`` bodies, keep-alive connections, and JSON responses.
No chunked encoding, no TLS, no compression — this is an internal
service protocol, and every limit (header size, body size) is explicit
so a misbehaving client cannot balloon server memory.

Shared by the server (:mod:`repro.service.app`) and the async client
(:mod:`repro.service.client`) so the two cannot drift apart.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

__all__ = [
    "HTTPRequest",
    "ProtocolError",
    "encode_json",
    "encode_response",
    "read_raw_response",
    "read_request",
    "read_response",
    "write_raw_request",
    "write_raw_response",
    "write_response",
]

#: Hard limits on inbound framing.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 1 * 1024 * 1024

#: Client-side cap on *response* bodies.  Much larger than the inbound
#: request cap: the server is trusted, and a wide release (k up to
#: ``protocol.MAX_K``) or a long-lived ``/metrics`` payload legitimately
#: exceeds the 1 MiB request bound.
MAX_RESPONSE_BYTES = 64 * 1024 * 1024

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed or over-limit HTTP framing (connection is dropped)."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        super().__init__(message)


@dataclass
class HTTPRequest:
    """One parsed inbound request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    query: Dict[str, str] = field(default_factory=dict)

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        connection = self.headers.get("connection", "keep-alive")
        return connection.lower() != "close"  # RFC 9110: case-insensitive

    def json(self) -> object:
        """Decode the body as JSON (:class:`ProtocolError` on failure)."""
        if not self.body:
            raise ProtocolError(400, "request body must be JSON")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(400, f"invalid JSON body: {error}")


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF between requests
        raise ProtocolError(400, "truncated request")
    except asyncio.LimitOverrunError:
        raise ProtocolError(413, "request line or header too long")
    if len(line) > limit:
        raise ProtocolError(413, "request line or header too long")
    return line[:-2]


async def read_request(
    reader: asyncio.StreamReader,
) -> Optional[HTTPRequest]:
    """Parse one request; ``None`` on clean EOF (client closed)."""
    request_line = await _read_line(reader, MAX_REQUEST_LINE)
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {parts!r}")
    method, target, _version = parts
    try:
        split = urlsplit(target)
    except ValueError as error:  # e.g. an unclosed "[" IPv6 host
        raise ProtocolError(400, f"malformed request target: {error}")
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query).items()
    }
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader, MAX_HEADER_BYTES)
        if not line:
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError(413, "headers too large")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        raw_length = headers["content-length"]
        # ASCII digits only: int() alone also takes "+10" and "1_0".
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ProtocolError(400, "invalid Content-Length")
        try:
            length = int(raw_length)
        except ValueError:  # past int()'s digit limit
            raise ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ProtocolError(400, "truncated body")
    elif "transfer-encoding" in headers:
        raise ProtocolError(400, "chunked bodies are not supported")
    return HTTPRequest(
        method=method.upper(),
        path=split.path,
        headers=headers,
        body=body,
        query=query,
    )


def encode_json(payload: object) -> bytes:
    """Compact JSON bytes for ``payload``.

    ``NaN`` and ``±Infinity`` raise :class:`ValueError`: they are not
    JSON, and a strict client cannot parse a body holding them.
    """
    return json.dumps(
        payload, separators=(",", ":"), allow_nan=False
    ).encode()


def encode_response(status: int, payload: object) -> Tuple[int, bytes]:
    """``(status, body)`` for a JSON response.

    A payload with no JSON encoding answers a JSON 500 instead of
    putting a non-JSON token on the wire.
    """
    try:
        return status, encode_json(payload)
    except ValueError as error:
        return 500, encode_json(
            {
                "error": "internal_error",
                "message": f"response has no JSON encoding: {error}",
            }
        )


def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: object,
    keep_alive: bool = True,
) -> None:
    """Serialize ``payload`` as a JSON response onto ``writer``."""
    status, body = encode_response(status, payload)
    write_raw_response(writer, status, body, keep_alive=keep_alive)


def write_request(
    writer: asyncio.StreamWriter,
    method: str,
    path: str,
    payload: Optional[object] = None,
) -> None:
    """Serialize one client request (JSON body optional)."""
    body = b"" if payload is None else encode_json(payload)
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: privbasis\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + body)


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, object]:
    """Parse one response into ``(status, decoded JSON payload)``."""
    status, body = await read_raw_response(reader)
    payload = json.loads(body) if body else None
    return status, payload


def write_raw_request(
    writer: asyncio.StreamWriter,
    method: str,
    target: str,
    body: bytes = b"",
) -> None:
    """Forward one request with an already-serialized body.

    The router's proxy path: it re-frames the request (its own
    ``Content-Length``/keep-alive headers) but never re-encodes the
    JSON body, so what a worker parses is byte-for-byte what the
    client sent.  ``target`` carries the path *and* query string.
    """
    head = (
        f"{method} {target} HTTP/1.1\r\n"
        f"Host: privbasis\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: keep-alive\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + body)


async def read_raw_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, bytes]:
    """Parse one response into ``(status, raw body bytes)``.

    The router forwards worker responses without decoding them;
    :func:`read_response` layers JSON decoding on top for clients.
    """
    status_line = await _read_line(reader, MAX_REQUEST_LINE)
    if not status_line:
        raise ProtocolError(400, "server closed the connection")
    parts = status_line.decode("latin-1").split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed status line: {status_line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, MAX_HEADER_BYTES)
        if not line:
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    if length > MAX_RESPONSE_BYTES:
        raise ProtocolError(413, "response body too large")
    body = await reader.readexactly(length) if length else b""
    return status, body


def write_raw_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    keep_alive: bool = True,
) -> None:
    """Relay an already-serialized JSON body as a response.

    The router's reply path — the worker's payload goes back to the
    client byte-for-byte under the router's own framing.
    """
    reason = _STATUS_REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + body)
