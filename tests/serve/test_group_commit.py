"""Serve-tier group commit: one broadcast per event-loop turn.

Everything a :class:`SessionServer` decodes in one loop turn rides a
single ``@batch`` broadcast (DESIGN.md §5h).  These tests drive the
server over real TCP with the loopback stand-ins of
``test_request_trace.py`` and pin the rule down: a pipelined burst is
one broadcast, a lone request is today's bare envelope byte for byte,
a full batch is cut at the byte cap, a rejected broadcast fails every
request of the batch, and traced requests of one batch share its
MessageId as join key.
"""

import asyncio
import json

from repro.live.scheduler import AsyncioScheduler
from repro.obs.reqtrace import (
    crosscheck_request_latency,
    request_breakdown,
    requests_by_key,
)
from repro.serve.lease import LeaderLease
from repro.serve.server import MAX_BATCH_BYTES, SessionServer
from repro.serve.session import SessionMachine, session_command
from repro.serve.wire import (
    FrameSlicer,
    Request,
    decode_response,
    encode_request,
)
from repro.smr.kvstore import KVStore
from repro.smr.machine import BATCH_OP, batch_command, unbatch
from repro.types import View
from tests.serve.test_request_trace import InstantRSM, MessageIdRSM, _loopback


class RecordingRSM(InstantRSM):
    """Apply-on-submit, remembering every submitted command."""

    def __init__(self, machine: SessionMachine) -> None:
        super().__init__(machine)
        self.submitted = []

    def submit(self, command) -> None:
        self.submitted.append(command)
        super().submit(command)


def _burst(requests, prepare=None):
    """Write ``requests`` to a fresh server in ONE socket write and read
    one response per request; returns (server, rsm, responses)."""

    async def runner():
        loop = asyncio.get_running_loop()
        machine = SessionMachine(KVStore())
        rsm = RecordingRSM(machine)
        sched = AsyncioScheduler(loop)
        server = SessionServer(
            0, rsm, machine, LeaderLease(sched, node_id=0, lease_s=30.0), sched
        )
        await server.start("127.0.0.1", 0)
        server.on_view(View(view_id=0, members=(0,)))
        await asyncio.sleep(0)
        if prepare is not None:
            prepare(rsm)
        rsm.submitted.clear()  # drop the bootstrap lease renewal
        host, port = server._server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"".join(encode_request(r) for r in requests))
            await writer.drain()
            responses = []
            slicer = FrameSlicer()
            while len(responses) < len(requests):
                chunk = await asyncio.wait_for(reader.read(65536), 5.0)
                assert chunk, "server closed before answering every request"
                responses.extend(decode_response(b) for b in slicer.feed(chunk))
        finally:
            writer.close()
            await server.close()
        return server, rsm, responses

    return asyncio.run(runner())


def _puts(count, value="v"):
    return [
        Request(client="c", seq=seq, first_unacked=1, barrier=0,
                op="put", args=(f"k{seq}", value))
        for seq in range(1, count + 1)
    ]


def test_pipelined_burst_rides_one_broadcast():
    server, rsm, responses = _burst(_puts(16))
    assert all(r.ok and r.served == "ordered" for r in responses)
    assert sorted(r.seq for r in responses) == list(range(1, 17))
    # One connection's buffered frames are decoded in one loop turn.
    (batch,) = rsm.submitted
    assert batch.op == BATCH_OP
    assert [sub.args[1] for sub in unbatch(batch)] == list(range(1, 17))
    stats = server.stats()
    assert stats["batches"] == 1
    assert stats["batch_commands"]["max"] == 16
    assert stats["ordered"] == 16
    assert stats["applied_index"] == 17  # + the bootstrap lease renewal
    assert server._waiters == {} and server._pending == []
    # ... and through the telemetry registry (/metrics, node record).
    snapshot = server.telemetry.snapshot()
    assert snapshot["counters"]["serve_batches"] == 1
    assert snapshot["histograms"]["serve_batch_commands"]["sum"] == 16


def test_batch_of_one_is_the_bare_envelope_byte_for_byte():
    _server, rsm, responses = _burst(_puts(1))
    assert responses[0].ok
    (command,) = rsm.submitted
    envelope = session_command("c", 1, 1, "put", ("k1", "v"))
    assert command == envelope
    # The parent commit's untraced envelope, spelled out.
    assert command.encode() == b'["@session", ["c", 1, 1, "put", ["k1", "v"]]]'
    assert batch_command([envelope]) is envelope


def test_batch_payload_is_the_issue_format():
    one = session_command("c", 1, 1, "put", ("a", 1))
    two = session_command("d", 4, 2, "get", ("a",))
    assert json.loads(batch_command([one, two]).encode()) == [
        "@batch",
        [["@session", ["c", 1, 1, "put", ["a", 1]]],
         ["@session", ["d", 4, 2, "get", ["a"]]]],
    ]


def test_full_batches_are_cut_at_the_byte_cap():
    assert MAX_BATCH_BYTES <= 64 * 1024
    value = "x" * 9_000
    _server, rsm, responses = _burst(_puts(20, value))
    assert all(r.ok for r in responses)
    assert len(rsm.submitted) > 1
    # The cap counts wire-frame bytes; an envelope is smaller than its frame.
    assert all(len(c.encode()) <= MAX_BATCH_BYTES for c in rsm.submitted)
    # Nothing lost, nothing reordered across the cut.
    seqs = [sub.args[1] for c in rsm.submitted for sub in unbatch(c)]
    assert seqs == list(range(1, 21))


def test_server_never_encodes_an_envelope_to_weigh_it(monkeypatch):
    # The one json.dumps per ordered request belongs to rsm.submit; the
    # apply-on-submit stand-in has none, so the server side must show zero.
    from repro.smr.machine import Command

    calls = []
    encode = Command.encode
    monkeypatch.setattr(
        Command, "encode", lambda self: calls.append(self.op) or encode(self)
    )
    server, _rsm, responses = _burst(_puts(8))
    assert all(r.ok for r in responses)
    assert calls == []
    assert server._pending_bytes == 0


def test_rejected_broadcast_fails_every_request_of_the_batch():
    def block(rsm):
        rsm.fail = True  # the ring refuses broadcasts (view change)

    server, rsm, responses = _burst(_puts(12), prepare=block)
    assert len(responses) == 12
    assert all(
        not r.ok and r.error.startswith("unavailable") for r in responses
    )
    assert sorted(r.seq for r in responses) == list(range(1, 13))
    assert rsm.submitted and server.stats()["batches"] == 0
    assert server._waiters == {} and server._pending == []


def test_traced_requests_of_one_batch_share_its_message_id():
    async def scenario(server, client, machine):
        # Pipelined without awaiting in between: the writes coalesce on
        # the socket and the server decodes them in one turn.
        futures = [client.submit("put", f"k{i}", "v") for i in range(4)]
        responses = await asyncio.gather(*futures)
        assert all(r.ok and r.served == "ordered" for r in responses)
        assert server.stats()["batch_commands"]["max"] >= 2
        assert server._proposed == {} and server._ordered_keys == set()

    events = _loopback(scenario, rsm_cls=MessageIdRSM)
    lifecycles = requests_by_key(events)
    assert len(lifecycles) == 4
    by_message = {}
    for key, lifecycle in lifecycles.items():
        kinds = [e.kind for e in lifecycle]
        assert kinds == [
            "send", "recv", "enqueued", "proposed", "ordered", "applied",
            "responded", "acked",
        ], (key, kinds)
        proposed, ordered = lifecycle[3], lifecycle[4]
        assert proposed.message_id is not None
        assert proposed.message_id == ordered.message_id
        by_message.setdefault(proposed.message_id, []).append(key)
    # At least two traced requests rode the same broadcast.
    assert max(len(keys) for keys in by_message.values()) >= 2
    # Stages still telescope exactly to the ordered end-to-end value.
    breakdown = request_breakdown(events)
    assert breakdown.requests == 4
    stage_sum = sum(
        breakdown.stages[stage].mean_s
        for stage in ("queue", "replication", "apply", "respond")
    )
    assert abs(stage_sum - breakdown.end_to_end.mean_s) < 1e-9
    # Every request here took the ordered path, so the all-requests
    # mean the 5 % gate compares is the ordered one.
    crosscheck_request_latency(breakdown, breakdown.end_to_end.mean_s)


def test_untraced_batches_leave_no_trace_state():
    async def scenario(server, client, machine):
        await asyncio.gather(*[client.submit("put", "k", i) for i in range(8)])
        assert server._proposed == {}

    assert _loopback(scenario, rsm_cls=MessageIdRSM, trace=False) == []
