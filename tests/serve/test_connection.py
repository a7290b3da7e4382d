"""The serve tier's connections: one slicer, two callback protocols.

Most of these drive ``data_received`` on the server's and the client's
``_Connection`` directly, with a stub in place of the socket transport
(as ``tests/live/test_transport_receive.py`` does for the ring), so any
chunking of a byte stream can be tried without a socket.  The
load-bearing claims:

* any chunking of a request stream — one byte at a time included —
  dispatches the same requests in the same order and writes the same
  response bytes; likewise responses into the client;
* the frames themselves are the wire's, byte for byte — only their
  grouping into writes changed: one write per connection per loop turn
  at both ends;
* hostile bytes close the connection with nothing dispatched after the
  bad frame, and an announced 1 MB body allocates nothing until it
  arrives;
* a client that never reads its responses stops being read, so the
  server's buffered responses stay bounded;
* a rejected ``@batch`` (one ``unavailable`` per request, in one write)
  costs the client one failover, not one per request.
"""

import asyncio
import json
import socket
import struct
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.scheduler import AsyncioScheduler
from repro.obs.httpexport import MetricsServer, fetch_metrics
from repro.obs.telemetry import Telemetry
from repro.serve import client as client_module
from repro.serve import server as server_module
from repro.serve.client import SessionClient
from repro.serve.lease import LeaderLease
from repro.serve.runner import _scrape_parity
from repro.serve.server import SessionServer
from repro.serve.session import SessionMachine
from repro.serve.wire import (
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    FrameSlicer,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.smr.kvstore import KVStore
from repro.types import View
from tests.serve.test_server_loopback import InstantRSM


class _StubTransport:
    """Stands in for the socket transport of one connection."""

    def __init__(self):
        self.written = bytearray()
        self.writes = 0
        self.closed = False
        self.reading = True

    def write(self, data):
        self.written += data
        self.writes += 1

    def close(self):
        self.closed = True

    abort = close

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


async def _settle(turns=10):
    for _ in range(turns):
        await asyncio.sleep(0)


async def _server(telemetry=None):
    loop = asyncio.get_running_loop()
    machine = SessionMachine(KVStore())
    sched = AsyncioScheduler(loop)
    server = SessionServer(
        0, InstantRSM(machine), machine,
        LeaderLease(sched, node_id=0, lease_s=30.0), sched,
        telemetry=telemetry,
    )
    server.on_view(View(view_id=0, members=(0,)))
    await _settle()  # the bootstrap renewal applies: the lease is held
    return server


class _ServerHarness:
    """One server ``_Connection`` on a stub transport, and the log of
    every request it dispatched."""

    def __init__(self, server):
        self.server = server
        self.dispatched = []
        dispatch = server._dispatch

        def recording(request, conn, frame_bytes=0):
            self.dispatched.append((request.client, request.seq))
            dispatch(request, conn, frame_bytes)

        server._dispatch = recording
        self.link = _StubTransport()
        self.conn = server_module._Connection(server)
        self.conn.connection_made(self.link)

    def feed(self, data, chunk_sizes=()):
        """Deliver ``data`` in chunks of the given sizes (then whole),
        all in this loop turn; stops where the connection was closed."""
        sizes = iter(chunk_sizes)
        taken = 0
        while taken < len(data) and not self.link.closed:
            count = min(next(sizes, len(data)), len(data) - taken)
            self.conn.data_received(data[taken:taken + count])
            taken += count


def _request(client, seq, op, *args, **flags):
    return Request(client=client, seq=seq, first_unacked=1, barrier=0,
                   op=op, args=args, **flags)


# -- chunking ---------------------------------------------------------------
_ops = st.one_of(
    st.tuples(st.just("put"), st.sampled_from("abc"), st.integers(0, 9)),
    st.tuples(st.just("get"), st.sampled_from("abc")),
    st.tuples(st.just("incr"), st.sampled_from("abc"), st.integers(1, 3)),
)


@st.composite
def _request_streams(draw):
    requests, seqs = [], {}
    for client, op in draw(st.lists(
        st.tuples(st.sampled_from(["c1", "c2"]), _ops), min_size=1, max_size=12,
    )):
        seqs[client] = seqs.get(client, 0) + 1
        requests.append(_request(
            client, seqs[client], op[0], *op[1:], trace=draw(st.booleans()),
        ))
    return requests


def _serve_stream(stream, chunk_sizes=()):
    async def main():
        harness = _ServerHarness(await _server())
        harness.feed(stream, chunk_sizes)
        await _settle()
        return harness

    return asyncio.run(main())


@given(
    requests=_request_streams(),
    chunk_sizes=st.lists(st.integers(min_value=1, max_value=300), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_any_chunking_dispatches_and_answers_what_the_whole_stream_does(
    requests, chunk_sizes
):
    stream = b"".join(encode_request(r) for r in requests)
    whole = _serve_stream(stream)
    assert whole.dispatched == [(r.client, r.seq) for r in requests]
    answers = list(FrameSlicer().feed(bytes(whole.link.written)))
    assert sorted(decode_response(a).seq for a in answers) == sorted(
        r.seq for r in requests
    )
    assert whole.server.stats()["rx_chunks"] == 1
    for sizes in (chunk_sizes, [1] * len(stream)):
        chunked = _serve_stream(stream, sizes)
        assert chunked.dispatched == whole.dispatched
        assert chunked.link.written == whole.link.written
        assert not chunked.link.closed


@given(
    seqs=st.lists(st.integers(min_value=1, max_value=50), max_size=10),
    chunk_sizes=st.lists(st.integers(min_value=1, max_value=200), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_any_chunking_hands_the_client_what_the_whole_stream_does(
    seqs, chunk_sizes
):
    stream = b"".join(
        encode_response(Response(seq=seq, ok=True, result=[seq, "x"] * seq))
        for seq in seqs
    )
    for sizes in ((), chunk_sizes, [1] * len(stream)):
        client, link = asyncio.run(_client_stream(stream, sizes))
        assert [r.seq for r in client.responses] == seqs
        assert [r.result for r in client.responses] == [
            [seq, "x"] * seq for seq in seqs
        ]
        assert not link.closed


class _StubSession:
    """Stands in for the ``SessionClient`` behind a client connection."""

    client_id = "stub"

    def __init__(self):
        self.responses = []

    def _on_response(self, response):
        self.responses.append(response)

    def _on_connection_lost(self, conn):
        pass


async def _client_stream(stream, chunk_sizes=()):
    session = _StubSession()
    link = _StubTransport()
    conn = client_module._Connection(session)
    conn.connection_made(link)
    sizes = iter(chunk_sizes)
    taken = 0
    while taken < len(stream) and not link.closed:
        count = min(next(sizes, len(stream)), len(stream) - taken)
        conn.data_received(stream[taken:taken + count])
        taken += count
    return session, link


# -- one write per connection per turn, frames unchanged -------------------
def test_one_turn_of_responses_leaves_in_one_write():
    async def main():
        harness = _ServerHarness(await _server())
        await harness.server.close()  # keep the bootstrap lease, no timer
        reads = [_request("c", seq, "get", "k") for seq in range(1, 6)]
        harness.feed(b"".join(encode_request(r) for r in reads))
        await _settle()
        return harness

    harness = asyncio.run(main())
    assert harness.link.writes == 1
    assert harness.link.written == b"".join(
        encode_response(Response(
            seq=seq, ok=True, result=None, served="local", leader=0, view_id=0,
        ))
        for seq in range(1, 6)
    )
    stats = harness.server.stats()
    assert stats["responses_per_write"]["max"] == 5
    assert stats["requests_per_chunk"]["max"] == 5


def test_client_requests_of_one_turn_leave_in_one_write():
    async def main():
        client = SessionClient("c", [("127.0.0.1", 1)])
        link = _StubTransport()
        conn = client_module._Connection(client)
        conn.connection_made(link)
        client._conn = conn
        futures = [client.submit("put", f"k{i}", i) for i in range(6)]
        await _settle(2)
        for future in futures:
            future.cancel()
        return link

    link = asyncio.run(main())
    assert link.writes == 1
    assert link.written == b"".join(
        encode_request(_request("c", i + 1, "put", f"k{i}", i))
        for i in range(6)
    )


# -- hostile bytes ----------------------------------------------------------
_GOOD = encode_request(_request("c", 1, "put", "k", "v"))
_AFTER = encode_request(_request("c", 2, "put", "k", "after the bad frame"))


def _framed(body):
    return struct.pack("!I", len(body)) + body


_MISSING_OP = json.dumps({
    key: value for key, value in _request("c", 2, "get", "k").to_dict().items()
    if key != "op"
}).encode()

_HOSTILE_REQUESTS = {
    "oversized prefix": _GOOD + struct.pack("!I", MAX_FRAME_BYTES + 1),
    "non-UTF-8 body": _GOOD + _framed(b"\xff\xfe{}"),
    "non-object JSON": _GOOD + _framed(b"[1, 2]"),
    "missing field": _GOOD + _framed(_MISSING_OP),
}


def test_hostile_request_streams_close_with_no_dispatch_after_the_bad_frame():
    for name, stream in _HOSTILE_REQUESTS.items():
        for chunks in ((), [1] * (len(stream) + len(_AFTER)), [7] * 100):
            harness = _serve_stream(stream + _AFTER, chunks)
            assert harness.link.closed, name
            assert harness.dispatched == [("c", 1)], name


def test_truncation_then_eof_dispatches_nothing_more():
    async def main():
        harness = _ServerHarness(await _server())
        harness.feed(_GOOD + _AFTER[:-1])
        assert not harness.conn.eof_received()  # falsy: the loop closes
        harness.conn.connection_lost(None)
        await _settle()
        return harness

    harness = asyncio.run(main())
    assert harness.dispatched == [("c", 1)]
    assert harness.server._connections == set()


def test_hostile_response_streams_close_with_nothing_handed_up_after():
    good = encode_response(Response(seq=1, ok=True))
    after = encode_response(Response(seq=2, ok=True))
    hostile = {
        "oversized prefix": struct.pack("!I", MAX_FRAME_BYTES + 1),
        "non-UTF-8 body": _framed(b"\xff\xfe{}"),
        "non-object JSON": _framed(b"null"),
        "missing field": _framed(b'{"seq": 2}'),
    }
    for name, bad in hostile.items():
        stream = good + bad + after
        for chunks in ((), [1] * len(stream), [5] * 100):
            session, link = asyncio.run(_client_stream(stream, chunks))
            assert link.closed, name
            assert [r.seq for r in session.responses] == [1], name


def test_hostile_bytes_on_the_listening_port_reach_no_exception_handler():
    async def main():
        loop_errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        server = await _server()
        await server.start("127.0.0.1", 0)
        host, port = server._server.sockets[0].getsockname()[:2]
        for stream in _HOSTILE_REQUESTS.values():
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(stream + _AFTER)
            await writer.drain()
            # Closed; the good frame's answer went with the connection.
            data = await asyncio.wait_for(reader.read(), 5.0)
            writer.close()
            assert list(FrameSlicer().feed(data)) == []
        await server.close()
        assert loop_errors == []
        assert server.machine.inner.snapshot() == {"k": "v"}

    asyncio.run(main())


def test_announced_megabyte_allocates_nothing_until_it_arrives():
    big = _request("c", 1, "put", "k", "x" * (MAX_FRAME_BYTES - 200))
    frame = encode_request(big)
    assert len(frame) > MAX_FRAME_BYTES - 200

    async def main():
        harness = _ServerHarness(await _server())
        tracemalloc.start()
        try:
            harness.feed(frame[:LENGTH_PREFIX_BYTES])
            _size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert len(harness.conn._slicer._tail) == LENGTH_PREFIX_BYTES
        half = len(frame) // 2
        harness.feed(frame[LENGTH_PREFIX_BYTES:half], [65536] * 20)
        assert len(harness.conn._slicer._tail) == half
        assert harness.dispatched == []
        harness.feed(frame[half:] + _AFTER, [65536] * 20)
        assert len(harness.conn._slicer._tail) == 0
        await _settle()
        return harness

    harness = asyncio.run(main())
    assert harness.dispatched == [("c", 1), ("c", 2)]
    assert not harness.link.closed


# -- backpressure -----------------------------------------------------------
def test_a_client_that_never_reads_stops_being_read():
    """At the parent every request was read and got its own task, which
    then waited in ``drain()`` — without limit."""
    value = "v" * 16_000
    total = 400
    per_write = 8

    async def main():
        server = await _server()
        await server.start("127.0.0.1", 0)
        listener = server._server.sockets[0]
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 32 * 1024)
        host, port = listener.getsockname()[:2]
        writer_client = SessionClient("w", [(host, port)], retry_timeout_s=30.0)
        await writer_client.connect()
        assert (await writer_client.request("put", "big", value)).ok
        await writer_client.close()

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)
        sock.setblocking(False)
        await asyncio.get_running_loop().sock_connect(sock, (host, port))
        reader, writer = await asyncio.open_connection(sock=sock)
        reads = [_request("r", seq, "get", "big") for seq in range(1, total + 1)]
        try:
            for start in range(0, total, per_write):
                writer.write(b"".join(
                    encode_request(r) for r in reads[start:start + per_write]
                ))
                await asyncio.sleep(0.002)
            # Let the server take everything it is going to take.
            seen, stable = -1, 0
            while stable < 10:
                await asyncio.sleep(0.02)
                now = server.stats()["requests"] - 1  # minus the put
                stable = stable + 1 if now == seen else 0
                seen = now
            # Stopped far short of the 400 requests the client wrote:
            # the kernel buffers, the high-water mark and one turn.
            assert seen < total // 4, seen
            (conn,) = server._connections
            _low, high = conn.transport.get_write_buffer_limits()
            one_turn = server.stats()["requests_per_chunk"]["max"] * (
                len(value) + 200
            )
            assert conn.transport.get_write_buffer_size() <= high + one_turn
        finally:
            # Now read: everything is answered, in order.
            slicer, answers = FrameSlicer(), []
            while len(answers) < total:
                chunk = await asyncio.wait_for(reader.read(1 << 20), 10.0)
                assert chunk
                answers.extend(decode_response(b) for b in slicer.feed(chunk))
            writer.close()
            await server.close()
        return answers

    answers = asyncio.run(main())
    assert [a.seq for a in answers] == list(range(1, total + 1))
    assert all(a.ok and a.result == value for a in answers)


# -- failover ---------------------------------------------------------------
def test_a_rejected_batch_costs_one_failover_and_one_resend_each():
    """At the parent every ``unavailable`` started its own failover: 8
    rejections in one write read ``reconnects`` 8 and ``retries`` 40."""
    count = 8

    async def main():
        received = []  # per connection: the seqs it was sent

        async def handle(reader, writer):
            seqs = []
            received.append(seqs)
            first = len(received) == 1
            slicer = FrameSlicer()
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                requests = [decode_request(b) for b in slicer.feed(chunk)]
                seqs.extend(r.seq for r in requests)
                if first:
                    if len(seqs) == count:  # the whole batch: reject it
                        writer.write(b"".join(
                            encode_response(Response(
                                seq=seq, ok=False, served="ordered",
                                error="unavailable: view change in progress",
                            ))
                            for seq in seqs
                        ))
                else:
                    writer.write(b"".join(
                        encode_response(Response(seq=r.seq, ok=True))
                        for r in requests
                    ))
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        client = SessionClient(
            "storm", [address], retry_timeout_s=30.0, reconnect_backoff_s=0.01,
        )
        await client.connect()
        try:
            futures = [client.submit("put", f"k{i}", i) for i in range(count)]
            responses = await asyncio.wait_for(asyncio.gather(*futures), 10.0)
            await asyncio.sleep(0.1)  # any further failover would show now
        finally:
            await client.close()
            server.close()
            await server.wait_closed()
        return client, responses, received

    client, responses, received = asyncio.run(main())
    assert all(r.ok for r in responses)
    assert client.reconnects == 1
    assert client.retries == count
    assert len(received) == 2
    assert received[1] == list(range(1, count + 1))  # each resent once


# -- observability ----------------------------------------------------------
def test_receive_and_write_counters_reach_stats_metrics_and_the_record():
    async def main():
        telemetry = Telemetry()
        server = await _server(telemetry)
        await server.start("127.0.0.1", 0)
        metrics = MetricsServer(0, telemetry.snapshot)
        await metrics.start("127.0.0.1", 0)
        address = server._server.sockets[0].getsockname()[:2]
        client = SessionClient("c", [address], retry_timeout_s=30.0)
        await client.connect()
        try:
            await asyncio.gather(*[client.submit("put", "k", i) for i in range(16)])
            scrape = await fetch_metrics("127.0.0.1", metrics.port)
        finally:
            await client.close()
            await metrics.close()
            await server.close()
        return server, telemetry, scrape

    server, telemetry, scrape = asyncio.run(main())
    stats = server.stats()
    assert stats["rx_chunks"] >= 1
    assert stats["requests_per_chunk"]["sum"] == 16
    assert stats["responses_per_write"]["sum"] == 16
    assert stats["responses_per_write"]["max"] >= 2  # coalesced
    snapshot = telemetry.snapshot()
    assert snapshot["counters"]["serve_rx_chunks"] == stats["rx_chunks"]
    for name in ("serve_requests_per_chunk", "serve_responses_per_write"):
        assert snapshot["histograms"][name] == stats[name.split("_", 1)[1]]
    for series in ("repro_serve_rx_chunks_total",
                   "repro_serve_requests_per_chunk_count",
                   "repro_serve_responses_per_write_count"):
        assert series in scrape
    # The live scrape names nothing the node record cannot explain.
    assert _scrape_parity({0: scrape}, {0: {"telemetry": snapshot}}) is True


def test_responded_is_stamped_after_the_coalesced_write(monkeypatch):
    from repro.obs.reqtrace import RequestLog

    order = []

    async def main():
        server = await _server()
        server.reqlog = RequestLog(enabled=True)
        harness = _ServerHarness(server)
        write = harness.link.write
        monkeypatch.setattr(
            harness.link, "write",
            lambda data: order.append("write") or write(data),
        )
        emit = server.reqlog.emit
        monkeypatch.setattr(
            server.reqlog, "emit",
            lambda *args, **kw: order.append(args[2]) or emit(*args, **kw),
        )
        harness.feed(b"".join(
            encode_request(_request("c", seq, "put", "k", seq, trace=True))
            for seq in (1, 2)
        ))
        await _settle()

    asyncio.run(main())
    assert order.index("write") < order.index("responded")
    assert order.count("responded") == 2
    assert order[-3:] == ["write", "responded", "responded"]
