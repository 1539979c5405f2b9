"""Open-loop latency is timed from the due time, not the send time."""

import asyncio
import json

import loadgen
import run

SERVICE_S = 0.05


async def serve_slowly(reader, writer):
    """A stand-in service: every request takes SERVICE_S to answer."""
    while True:
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        if length:
            await reader.readexactly(length)
        await asyncio.sleep(SERVICE_S)
        body = json.dumps({"ok": True}).encode()
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: "
                     + str(len(body)).encode() + b"\r\n\r\n" + body)
        await writer.drain()


async def drive_open_loop():
    server = await asyncio.start_server(serve_slowly, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    plan = {"port": port, "loop": "open", "seconds": 0.05,
            "connections": 1,
            "open": [[due, "read", "t", "GET", "/v1/budget?tenant=t", None]
                     for due in (0.0, 0.01, 0.02)]}
    try:
        return await loadgen.run(plan)
    finally:
        server.close()


def test_queued_requests_are_charged_from_their_due_time():
    records = sorted(asyncio.run(drive_open_loop()), key=lambda r: r["due"])
    assert [r["status"] for r in records] == [200, 200, 200]
    last = records[-1]
    # The third request waited for two others on the one connection:
    # its service time is one SERVICE_S, its latency nearly three.
    assert last["done"] - last["sent"] < 2 * SERVICE_S
    assert run.latency_ms(last) >= (3 * SERVICE_S - 0.02) * 1e3
    assert all(r["late"] >= 0.0 for r in records)


def test_closed_loop_latency_is_the_round_trip():
    record = {"sent": 1.0, "done": 1.25}
    assert run.latency_ms(record) == 250.0
