"""What one served request costs, counted without a socket.

A session client and a session server, each ``_Connection`` on a stub
transport, exchange their bytes by hand; the server's broadcasts are
held until the test delivers them as one ``@batch``.  Counted, not
timed:

* an ordered request makes the server create no asyncio Future and
  schedule no callback of its own: the serve tier's only callbacks are
  the turn's one ``_flush`` and one ``_write`` per connection, however
  many requests the turn carried (the apply upcall answers);
* a delivered ``@batch`` of N requests makes exactly N
  ``encode_response`` calls and one socket write per connection;
* each request goes through one ``decode_request`` at the server and one
  ``encode_request`` + one ``decode_response`` at the client — the four
  functions a traced benchmark run wraps to attribute the wire layer —
  and no frame constructs a ``JSONEncoder``;
* a resend answered by its first copy's apply is not answered again
  when its own batch is rejected;
* a response too large to frame closes its connection without raising
  out of the apply upcall, so the rest of the delivery still applies.
"""

import asyncio
import functools
import json

import pytest

from repro.errors import NetworkError
from repro.live.scheduler import AsyncioScheduler
from repro.serve import client as client_module
from repro.serve import server as server_module
from repro.serve import wire
from repro.serve.client import SessionClient
from repro.serve.lease import LeaderLease
from repro.serve.server import SessionServer
from repro.serve.session import SessionMachine
from repro.serve.wire import FrameSlicer, Request, decode_response, encode_request
from repro.smr.kvstore import KVStore
from repro.smr.machine import Command, unbatch
from repro.types import View
from tests.serve.test_connection import _settle, _StubTransport

#: Client sessions, each on its own server connection.
SESSIONS = ("a", "b")


class _HeldRSM:
    """Holds every submitted command until :meth:`deliver`; refuses
    broadcasts while ``fail`` is set."""

    def __init__(self, machine):
        self.machine = machine
        self.held = []
        self.fail = False

    def submit(self, command):
        if self.fail:
            raise NetworkError("broadcast rejected (view change in progress)")
        self.held.append(command)

    def deliver(self):
        held, self.held = self.held, []
        for command in held:
            self.machine.apply(command)
        return held


def _counting(module, name, counts):
    original = getattr(module, name)

    def wrapper(*args):
        counts[name] += 1
        return original(*args)

    return wrapper


def _method(callback):
    """``(owner, name)`` of a scheduled bound method (partials unwrapped)."""
    if isinstance(callback, functools.partial):
        callback = callback.func
    return getattr(callback, "__self__", None), getattr(callback, "__name__", "")


def _round_trip(monkeypatch, per_session):
    """``per_session`` ordered puts from each session, there and back;
    returns the counts."""
    counts = dict.fromkeys(
        ("encode_request", "decode_request", "encode_response",
         "decode_response", "json_encoders", "server_futures"), 0,
    )
    for module, name in ((client_module, "encode_request"),
                         (client_module, "decode_response"),
                         (server_module, "decode_request"),
                         (server_module, "encode_response")):
        monkeypatch.setattr(module, name, _counting(module, name, counts))
    encoder_init = json.JSONEncoder.__init__

    def counting_init(self, *args, **kwargs):
        counts["json_encoders"] += 1
        encoder_init(self, *args, **kwargs)

    monkeypatch.setattr(json.JSONEncoder, "__init__", counting_init)

    async def main():
        loop = asyncio.get_running_loop()
        server, rsm = await _held_server()
        sessions = []
        for name in SESSIONS:
            client = SessionClient(name, [("127.0.0.1", 1)])  # never dialled
            client._conn = client_module._Connection(client)
            client._conn.connection_made(_StubTransport())
            conn = server_module._Connection(server)
            conn.connection_made(_StubTransport())
            sessions.append((client, conn))
        futures = [
            client.submit("put", f"k{i}", i)
            for client, _conn in sessions for i in range(per_session)
        ]
        await _settle()

        # The server's side, from the requests' bytes to its writes.
        scheduled = []
        call_soon, create_future = loop.call_soon, loop.create_future

        def counting_call_soon(callback, *args, **kwargs):
            scheduled.append(callback)
            return call_soon(callback, *args, **kwargs)

        def counting_create_future():
            counts["server_futures"] += 1
            return create_future()

        loop.call_soon, loop.create_future = counting_call_soon, counting_create_future
        try:
            for client, conn in sessions:
                conn.data_received(bytes(client._conn.transport.written))
            await _settle()
            (batch,) = rsm.deliver()
            await _settle()
        finally:
            del loop.call_soon, loop.create_future
        conns = [conn for _client, conn in sessions]
        serve_tier = {server, *conns}
        counts["serve_callbacks"] = sorted(
            name for owner, name in map(_method, scheduled)
            if owner in serve_tier
        )
        counts["batch_commands"] = len(unbatch(batch))
        counts["server_writes"] = [conn.transport.writes for conn in conns]

        for client, conn in sessions:
            client._conn.data_received(bytes(conn.transport.written))
        responses = [future.result() for future in futures]
        assert all(r.ok and r.served == "ordered" for r in responses)
        assert server._waiters == {}
        return counts

    return asyncio.run(main())


async def _held_server():
    loop = asyncio.get_running_loop()
    machine = SessionMachine(KVStore())
    rsm = _HeldRSM(machine)
    sched = AsyncioScheduler(loop)
    server = SessionServer(
        0, rsm, machine, LeaderLease(sched, node_id=0, lease_s=30.0), sched
    )
    server.on_view(View(view_id=0, members=(0,)))
    await _settle()
    rsm.deliver()  # the bootstrap lease renewal
    return server, rsm


@pytest.mark.parametrize("per_session", [1, 8])
def test_an_ordered_request_costs_no_future_and_no_callback(
    monkeypatch, per_session
):
    counts = _round_trip(monkeypatch, per_session)
    assert counts["server_futures"] == 0
    # One flush for the turn's batch, one write per connection: none
    # of them per request.
    assert counts["serve_callbacks"] == ["_flush"] + ["_write"] * len(SESSIONS)


@pytest.mark.parametrize("per_session", [1, 8])
def test_a_delivered_batch_is_n_encodes_and_one_write_per_connection(
    monkeypatch, per_session
):
    counts = _round_trip(monkeypatch, per_session)
    n = per_session * len(SESSIONS)
    assert counts["batch_commands"] == n
    assert counts["encode_response"] == n
    assert counts["server_writes"] == [1] * len(SESSIONS)


def test_each_request_is_one_codec_call_per_hop_and_no_encoder(monkeypatch):
    per_session = 4
    counts = _round_trip(monkeypatch, per_session)
    n = per_session * len(SESSIONS)
    assert counts["encode_request"] == n
    assert counts["decode_request"] == n
    assert counts["encode_response"] == n
    assert counts["decode_response"] == n
    assert counts["json_encoders"] == 0


def test_a_rejected_batch_leaves_a_duplicate_answered_by_its_apply_alone():
    """A resend of an in-flight request waits under the same key.  Its
    first copy's apply answers both; the resend's own batch, rejected
    afterwards, must not answer it a third time."""

    async def main():
        server, rsm = await _held_server()
        conn = server_module._Connection(server)
        conn.connection_made(_StubTransport())
        frame = encode_request(Request(
            client="c", seq=1, first_unacked=1, barrier=0, op="put",
            args=("k", 1),
        ))
        conn.data_received(frame)
        await _settle()  # the first copy's batch is submitted, held
        conn.data_received(frame)  # the resend: pending, not yet flushed
        rsm.deliver()
        rsm.fail = True
        await _settle()
        bodies = list(FrameSlicer().feed(bytes(conn.transport.written)))
        return server, [decode_response(body) for body in bodies]

    server, responses = asyncio.run(main())
    assert [(r.seq, r.ok, r.served) for r in responses] == [(1, True, "ordered")] * 2
    assert server._waiters == {} and server._pending == []



@pytest.mark.parametrize("cap, batches", [(wire.MAX_FRAME_BYTES, 2), (4096, 1)])
def test_an_unframeable_answer_closes_its_connection_and_the_rest_applies(
    monkeypatch, cap, batches
):
    """The apply upcall answers, so a response too large to frame must
    not raise out of it: every other command delivered with it still
    applies and answers, and only the connection owed that response is
    closed, as a bad request frame closes it.  At the real cap the
    oversized request is a batch of its own; under a small cap both
    ride one ``@batch``."""
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", cap)
    # Under the cap on the wire; the store's rejection quotes the op
    # with its backslashes doubled, and the response doubles them again.
    op = "\\" * (cap * 2 // 7)

    async def main():
        server, rsm = await _held_server()
        big, small = (server_module._Connection(server) for _ in range(2))
        for conn in (big, small):
            conn.connection_made(_StubTransport())
        big.data_received(encode_request(Request(
            client="big", seq=1, first_unacked=1, barrier=0, op=op,
        )))
        small.data_received(encode_request(Request(
            client="small", seq=1, first_unacked=1, barrier=0, op="put",
            args=("k", 1),
        )))
        await _settle()
        held = rsm.deliver()
        await _settle()
        return server, rsm.machine, held, big, small

    server, machine, held, big, small = asyncio.run(main())
    assert len(held) == batches
    assert sum(len(unbatch(command)) for command in held) == 2
    assert machine.lookup("big", 1)[0] == "error"
    assert machine.lookup("small", 1)[0] == "ok"
    assert machine.local_read(Command("get", ("k",))) == 1
    assert big.transport.closed and big.transport.written == b""
    (body,) = FrameSlicer().feed(bytes(small.transport.written))
    response = decode_response(body)
    assert (response.seq, response.ok, response.served) == (1, True, "ordered")
    assert server._waiters == {}
