"""Receive-path tests: the frame slicer behind ``RingTransport``'s listener.

Most of these drive ``get_buffer`` / ``buffer_updated`` on the protocol
object directly, with a stub in place of the socket transport, so every
chunking of a byte stream can be tried without a socket.  The
load-bearing claims:

* any chunking of a valid stream — one byte at a time included — hands
  up the same messages in the same order with the same counters as the
  stream fed whole;
* nothing handed up aliases the receive buffer: payloads stay intact
  while the buffer is overwritten, compacted, grown and shrunk;
* memory is bounded by the bytes that really arrived: a prefix
  announcing ``MAX_FRAME_BYTES`` allocates nothing, the buffer doubles
  as the frame comes in, never past one maximal frame, and returns to
  ``RX_BUFFER_BYTES`` once the frame is consumed;
* every malformed stream closes the connection with no upcall after the
  bad frame and nothing but ``CodecError`` handled on the way;
* an exception raised by an upcall fails the transport loudly instead
  of silently losing the frames drained behind it;
* a batch frame is one unit of work: its messages are handed up as one
  list to ``on_messages`` (FSR's frame handler: one GC pass, one pump),
  the TX gate stays open, and what the handler queued is written before
  the next frame is handed up; a handler that raises mid-frame leaves
  no frame state behind and its frame unanswered;
* the teardown of a superseded connection does not unregister the
  connection that replaced it.
"""

import asyncio
import logging
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batching import BatchingConfig
from repro.core.fsr.messages import AckBatch, AckMsg, FwdData, SeqData
from repro.live import transport as transport_module
from repro.live.codec import (
    CHANNEL_CONTROL,
    CHANNEL_RING,
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    ControlFrame,
    FrameBatch,
    Hello,
    encode_frame,
)
from repro.live.node import _TRANSPORT_COUNTERS
from repro.live.transport import RX_BUFFER_BYTES, RingTransport
from repro.obs.telemetry import Telemetry
from repro.types import MessageId
from tests.fsr.nullring import NullRing
from tests.live.test_codec_properties import ack_batch, fwd_data, seq_data
from tests.live.test_transport import _free_port

PEER = 7


def _data(seq, payload):
    return FwdData(
        message_id=MessageId(PEER, seq), origin=PEER, payload=payload,
        payload_size=len(payload), view_id=0, piggybacked=[],
    )


class _StubTransport:
    """Stands in for the socket transport: only ``close()`` is used."""

    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class _Harness:
    """A ``RingTransport`` that never binds (or ``owner``), one inbound
    connection on it, and the log of everything handed up."""

    def __init__(self, telemetry=None, owner=None):
        self.upcalls = []
        if owner is None:
            owner = RingTransport(
                0, ("127.0.0.1", 0), 1, ("127.0.0.1", 0),
                lambda src, msg: self.upcalls.append(("ring", src, msg)),
                telemetry=telemetry,
            )
            owner.on_control = lambda layer, src, inner: self.upcalls.append(
                ("ctl", layer, src, inner)
            )
        self.owner = owner
        self.link = _StubTransport()
        self.conn = transport_module._InboundConnection(self.owner)
        self.conn.connection_made(self.link)
        self.buffer_hwm = 0

    def feed(self, data, chunk_sizes=None):
        """Write ``data`` through ``get_buffer`` / ``buffer_updated`` the
        way the event loop does, in chunks of the given sizes (then
        whole); stops where the connection was closed.  Returns the
        bytes taken."""
        sizes = iter(chunk_sizes or ())
        taken = 0
        while taken < len(data) and not self.link.closed:
            free = self.conn.get_buffer(-1)
            assert len(free) > 0, "no room offered to recv_into"
            count = min(len(free), next(sizes, len(data)), len(data) - taken)
            free[:count] = data[taken:taken + count]
            self.conn.buffer_updated(count)
            self.buffer_hwm = max(self.buffer_hwm, len(self.conn._view))
            taken += count
        return taken

    def counters(self):
        owner = self.owner
        return (
            owner.frames_received, owner.bytes_received,
            owner.batches_received, owner.control_frames_received,
        )


def _stream(messages, channel=CHANNEL_RING):
    return encode_frame(Hello(node_id=PEER, channel=channel)) + b"".join(
        encode_frame(message) for message in messages
    )


# -- chunking ---------------------------------------------------------------
_ring_message = st.one_of(fwd_data(), seq_data(), ack_batch())
_wire_message = st.one_of(
    _ring_message,
    st.builds(FrameBatch, messages=st.lists(_ring_message, max_size=4)),
)


@given(
    messages=st.lists(_wire_message, max_size=8),
    chunk_sizes=st.lists(st.integers(min_value=1, max_value=400), max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_any_chunking_hands_up_what_the_whole_stream_does(
    messages, chunk_sizes
):
    stream = _stream(messages)
    whole = _Harness()
    assert whole.feed(stream) == len(stream)
    expected = []
    for message in messages:
        inner = message.messages if isinstance(message, FrameBatch) else [message]
        expected.extend(("ring", PEER, entry) for entry in inner)
    assert whole.upcalls == expected
    assert whole.owner.bytes_received == len(stream) - len(
        encode_frame(Hello(node_id=PEER))
    )
    assert whole.owner.rx_chunks == 1

    chunked = _Harness()
    assert chunked.feed(stream, chunk_sizes) == len(stream)
    assert chunked.upcalls == whole.upcalls
    assert chunked.counters() == whole.counters()
    assert not chunked.link.closed

    bytewise = _Harness()
    assert bytewise.feed(stream, [1] * len(stream)) == len(stream)
    assert bytewise.upcalls == whole.upcalls
    assert bytewise.counters() == whole.counters()
    assert bytewise.owner.rx_chunks == len(stream)


def test_control_channel_shares_the_slicer():
    harness = _Harness()
    frames = [ControlFrame("fd", ("beat", n)) for n in range(5)]
    stream = _stream(frames, channel=CHANNEL_CONTROL)
    harness.feed(stream, [3] * len(stream))
    assert harness.upcalls == [
        ("ctl", "fd", PEER, ("beat", n)) for n in range(5)
    ]
    assert harness.owner.control_frames_received == 5
    assert harness.owner.frames_received == 0
    assert harness.owner.bytes_received == 0
    # A control connection does not satisfy the ring start barrier.
    assert not harness.owner._inbound_hello.is_set()
    assert harness.owner._inbound_peers == {
        (PEER, CHANNEL_CONTROL): harness.link
    }


# -- buffer ownership -------------------------------------------------------
#: Two of these frames fit in the receive buffer and three do not.
_SMALL = RX_BUFFER_BYTES * 2 // 5


def test_payloads_never_alias_the_receive_buffer():
    harness = _Harness()
    # Frames of two fifths of the buffer overwrite and compact it over
    # and over; one of 2.75 buffers grows it (and it shrinks back
    # afterwards).
    large = RX_BUFFER_BYTES * 11 // 4
    sent = [
        bytes([seq + 1]) * size
        for seq, size in enumerate([_SMALL] * 8 + [large] + [_SMALL] * 4)
    ]
    stream = _stream([_data(seq, payload) for seq, payload in enumerate(sent)])
    harness.feed(stream, [65_536] * (len(stream) // 65_536 + 1))
    assert harness.buffer_hwm > RX_BUFFER_BYTES  # it did grow
    assert len(harness.conn._view) == RX_BUFFER_BYTES  # and shrank back
    assert harness.owner.rx_compacted_bytes > 0  # and compacted
    got = [entry[2].payload for entry in harness.upcalls]
    assert got == sent
    assert all(type(payload) is bytes for payload in got)


def test_partial_tail_moves_only_when_the_next_frame_would_not_fit():
    harness = _Harness()
    harness.feed(_stream([]))
    frame = encode_frame(_data(1, bytes(_SMALL)))
    half = len(frame) // 2
    # One and a half frames: the half stays where it is (a whole frame
    # more fits behind it).
    harness.feed(frame + frame[:half])
    assert harness.owner.rx_compacted_bytes == 0
    assert harness.conn._start == len(frame)
    # The rest of it and the start of a third: that one would run past
    # the end of the buffer, so the bytes of it that arrived move to
    # the front.
    tail = RX_BUFFER_BYTES - 2 * len(frame)
    harness.feed(frame[half:] + frame[:tail])
    assert harness.owner.rx_compacted_bytes == tail
    assert (harness.conn._start, harness.conn._end) == (0, tail)
    harness.feed(frame[tail:])
    assert harness.owner.frames_received == 3
    assert len(harness.conn._view) == RX_BUFFER_BYTES


def test_announced_length_allocates_nothing_until_bytes_arrive():
    harness = _Harness()
    harness.feed(_stream([]))
    payload = bytes(range(256)) * (MAX_FRAME_BYTES // 256 - 1)
    frame = encode_frame(_data(1, payload))
    assert len(frame) > MAX_FRAME_BYTES - 256
    # The prefix alone (it announces ~16 MB): still the constant buffer.
    harness.feed(frame[:LENGTH_PREFIX_BYTES])
    assert len(harness.conn._view) == RX_BUFFER_BYTES
    # Half of it: the buffer has doubled up to what arrived, no further.
    half = len(frame) // 2
    harness.feed(frame[LENGTH_PREFIX_BYTES:half], [100_000] * 200)
    assert half < len(harness.conn._view) <= 2 * half
    assert not harness.upcalls
    # All of it, and a small frame behind it in the same chunks.
    small = _data(2, b"after")
    harness.feed(frame[half:] + encode_frame(small), [100_000] * 200)
    assert harness.buffer_hwm <= LENGTH_PREFIX_BYTES + MAX_FRAME_BYTES
    assert [entry[2] for entry in harness.upcalls] == [_data(1, payload), small]
    assert len(harness.conn._view) == RX_BUFFER_BYTES
    assert not harness.link.closed


# -- hostile bytes ----------------------------------------------------------
_GOOD = _data(1, b"good")
_AFTER = encode_frame(_data(2, b"after the bad frame"))


def _framed(body):
    return struct.pack("!I", len(body)) + body


_HOSTILE = {
    "oversized prefix": (
        _stream([_GOOD]) + struct.pack("!I", MAX_FRAME_BYTES + 1), 1,
    ),
    "garbage kind byte": (_stream([_GOOD]) + _framed(b"\xee" * 40), 1),
    "empty body": (_stream([_GOOD]) + _framed(b""), 1),
    "first frame is not a Hello": (encode_frame(_GOOD), 0),
    "control frame on the ring channel": (
        _stream([_GOOD, ControlFrame("fd", "beat")]), 1,
    ),
    "second Hello on the ring channel": (
        _stream([_GOOD, Hello(node_id=PEER)]), 1,
    ),
    "ring frame on the control channel": (
        _stream([ControlFrame("fd", "beat"), _GOOD], CHANNEL_CONTROL), 1,
    ),
    "malformed entry inside a batch": (
        _stream([_GOOD]) + _framed(b"\x04\x00\x00\x01" + _framed(b"\xee")), 1,
    ),
}


def test_hostile_streams_close_with_no_upcall_after_the_bad_frame(caplog):
    for name, (stream, upcalls_before) in _HOSTILE.items():
        for chunk_sizes in (None, [1] * (len(stream) + len(_AFTER)), [7] * 200):
            harness = _Harness()
            with caplog.at_level(logging.ERROR, logger=transport_module.__name__):
                # Any exception but CodecError would escape feed() here.
                harness.feed(stream + _AFTER, chunk_sizes)
            assert harness.link.closed, name
            assert len(harness.upcalls) == upcalls_before, name
            assert harness.owner.failure is None, name
            assert not caplog.records, name


def test_truncation_then_eof_closes_without_an_upcall():
    harness = _Harness()
    frame = encode_frame(_GOOD)
    harness.feed(_stream([]) + frame[:-1])
    assert not harness.upcalls and not harness.link.closed
    # A falsy eof_received() makes the event loop close the transport.
    assert not harness.conn.eof_received()
    harness.conn.connection_lost(None)
    assert not harness.upcalls
    assert harness.owner._inbound_peers == {}


def test_hostile_bytes_on_the_listening_port_reach_no_exception_handler():
    async def main():
        loop_errors = []
        asyncio.get_event_loop().set_exception_handler(
            lambda loop, context: loop_errors.append(context)
        )
        received = []
        port = _free_port()
        node = RingTransport(
            0, ("127.0.0.1", port), 1, ("127.0.0.1", _free_port()),
            lambda src, msg: received.append(msg),
        )
        await node.start()
        for stream, upcalls_before in _HOSTILE.values():
            del received[:]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(stream + _AFTER)
            await writer.drain()
            assert await asyncio.wait_for(reader.read(1), 5.0) == b""  # closed
            writer.close()
            assert len(received) <= upcalls_before
        # Truncation then EOF.
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_stream([]) + _AFTER[:-1])
        await writer.drain()
        writer.write_eof()
        assert await asyncio.wait_for(reader.read(1), 5.0) == b""
        writer.close()
        await node.close()
        assert node.failure is None
        assert loop_errors == []

    asyncio.run(main())


# -- upcall failures --------------------------------------------------------
def test_upcall_exception_fails_the_transport_loudly(caplog):
    """At the parent this was one stderr line from asyncio, a silent
    reconnect and ``failure is None``: the frames drained behind the
    failing upcall were simply gone."""

    async def main():
        upcalls = []

        def on_message(src, msg):
            upcalls.append(msg)
            raise RuntimeError("automaton rejected the message")

        port = _free_port()
        node = RingTransport(
            0, ("127.0.0.1", port), 1, ("127.0.0.1", _free_port()),
            on_message,
        )
        await node.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_stream([_data(seq, b"x") for seq in range(3)]))
        await writer.drain()
        assert await asyncio.wait_for(reader.read(1), 5.0) == b""  # closed
        writer.close()
        assert len(upcalls) == 1
        assert node.failure is not None
        assert "automaton rejected the message" in node.failure
        await node.close()

    with caplog.at_level(logging.ERROR, logger=transport_module.__name__):
        asyncio.run(main())
    assert any(
        record.exc_info and "receive upcall failed" in record.getMessage()
        for record in caplog.records
    )


def test_control_upcall_exception_fails_the_transport_too():
    harness = _Harness()

    def on_control(layer, src, inner):
        raise KeyError(layer)

    harness.owner.on_control = on_control
    harness.feed(_stream([ControlFrame("vsc", 1)] * 2, CHANNEL_CONTROL))
    assert harness.link.closed
    assert "KeyError" in harness.owner.failure


# -- a batch frame is one unit of work ---------------------------------------
class _Wire:
    """The socket transport of the outbound (successor) connection."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        pass

    def is_closing(self):
        return False


def _connect_successor(owner):
    """Greet a stub successor connection on ``owner``'s ring link."""
    link = owner._ring
    link._loop = asyncio.get_running_loop()
    wire = _Wire()
    conn = transport_module._OutboundConnection(link)
    conn.connection_made(wire)
    link._greet(conn)
    wire.writes.clear()  # the Hello
    return wire


def test_batch_frame_is_handed_up_as_one_list_with_the_gate_open():
    harness = _Harness()
    owner = harness.owner
    upcalls = []
    owner.on_message = lambda src, msg: upcalls.append(
        ("one", src, [msg], owner.tx_ready)
    )
    owner.on_messages = lambda src, msgs: upcalls.append(
        ("frame", src, msgs, owner.tx_ready)
    )
    idle = []
    owner.on_tx_idle(lambda: idle.append(1))
    messages = [_data(seq, b"x") for seq in range(7)]
    harness.feed(_stream([
        messages[0],
        FrameBatch(messages=messages[1:4]),
        messages[4],
        FrameBatch(messages=messages[5:]),
    ]))
    assert upcalls == [
        ("one", PEER, messages[:1], True),
        ("frame", PEER, messages[1:4], True),
        ("one", PEER, messages[4:5], True),
        ("frame", PEER, messages[5:], True),
    ]
    # The gate never closed, so nothing reopened it: the frame handler
    # answers its own frame.
    assert idle == []
    assert owner.frames_received == 7 and owner.batches_received == 2


def test_each_batch_frame_is_written_before_the_next_is_handed_up():
    async def main():
        harness = _Harness()
        owner = harness.owner
        wire = _connect_successor(owner)
        answers = [_data(100 + n, b"answer") for n in range(2)]
        writes_at_upcall = []

        def on_messages(src, msgs):
            writes_at_upcall.append(len(wire.writes))
            owner.send(1, answers[len(wire.writes)])

        owner.on_messages = on_messages
        first = [_data(seq, b"a") for seq in range(3)]
        second = [_data(seq, b"b") for seq in range(3, 6)]
        harness.feed(_stream([
            FrameBatch(messages=first), FrameBatch(messages=second),
        ]))
        assert owner.rx_chunks == 1  # both frames arrived in one chunk
        assert writes_at_upcall == [0, 1]
        assert wire.writes == [encode_frame(answer) for answer in answers]
        assert owner.flushes == 2
        # The end of the turn has nothing left to write.
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert len(wire.writes) == 2

    asyncio.run(main())


def test_plain_frames_still_write_once_per_turn():
    async def main():
        harness = _Harness()
        owner = harness.owner
        wire = _connect_successor(owner)
        owner.on_message = lambda src, msg: owner.send(1, msg)
        messages = [_data(seq, b"p") for seq in range(4)]
        harness.feed(_stream(messages))
        assert wire.writes == []
        await asyncio.sleep(0)
        assert wire.writes == [b"".join(encode_frame(m) for m in messages)]

    asyncio.run(main())


def test_a_frame_handler_that_raises_mid_batch_leaves_no_frame_state(caplog):
    """FSR's ``on_messages`` defers GC and the pump to the end of the
    frame; a ``ProtocolError`` half-way must neither leave them deferred
    for every later message nor answer the failed frame."""

    async def main():
        ring = NullRing(n=3, t=1)
        receiver = ring.processes[1]  # the last backup: it delivers
        harness = _Harness()
        owner = harness.owner
        wire = _connect_successor(owner)
        owner.on_message = receiver.on_message
        owner.on_messages = receiver.on_messages
        sequenced = [
            SeqData(MessageId(2, seq), 2, b"s", 1, seq, False, 0)
            for seq in (1, 2)
        ]
        # An ack for a payload the receiver never saw is a protocol error.
        unknown = AckBatch([AckMsg(MessageId(2, 9), 3, False, 0)], 0)
        with caplog.at_level(logging.ERROR, logger=transport_module.__name__):
            harness.feed(_stream([
                FrameBatch(messages=[sequenced[0], unknown, sequenced[1]]),
            ]))
        assert harness.link.closed
        assert "without ever seeing its payload" in owner.failure
        # Not answered: no pump sent the first message's ack on, and the
        # transport wrote nothing.
        assert not ring.fifo
        assert wire.writes == [] and owner.flushes == 0
        assert not receiver._in_frame
        assert receiver.last_delivered_sequence == 1
        # The next message is handled and pumped as usual ...
        receiver.on_message(0, sequenced[1])
        assert receiver.last_delivered_sequence == 2
        assert len(ring.fifo) == 1  # both acks, one AckBatch
        # ... and collected: a watermark past both frees their records.
        receiver.on_message(0, AckBatch([], 0, 2))
        assert receiver._gc_cursor == 2 and receiver.retained_count == 0

    asyncio.run(main())


# -- teardown ---------------------------------------------------------------
def test_stale_teardown_keeps_the_replacement_registered():
    async def main():
        port = _free_port()
        node = RingTransport(
            0, ("127.0.0.1", port), 1, ("127.0.0.1", _free_port()),
            lambda src, msg: None,
        )
        await node.start()
        links = []
        registered = None
        for _ in range(2):  # the predecessor reconnects: same greeting
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(_stream([]))
            await writer.drain()
            links.append((reader, writer))
            previous = registered
            for _ in range(200):
                registered = node._inbound_peers.get((PEER, CHANNEL_RING))
                if registered is not previous:
                    break
                await asyncio.sleep(0.01)
            assert registered is not previous
        # The old connection dies after its replacement registered.
        links[0][1].close()
        for _ in range(20):
            await asyncio.sleep(0.01)
        assert node._inbound_peers == {(PEER, CHANNEL_RING): registered}
        # ... so close() still finds the live one and closes it.
        await node.close()
        assert await asyncio.wait_for(links[1][0].read(1), 5.0) == b""
        links[1][1].close()
        for _ in range(20):
            if not node._inbound_peers:
                break
            await asyncio.sleep(0.01)
        assert node._inbound_peers == {}

    asyncio.run(main())


# -- real loopback, frames larger than the buffer ----------------------------
def test_frames_larger_than_the_buffer_round_trip_over_loopback():
    async def main():
        port_a, port_b = _free_port(), _free_port()
        received = []
        a = RingTransport(
            0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
            lambda src, msg: None,
            batching=BatchingConfig(max_batch_bytes=2_000_000),
        )
        b = RingTransport(
            1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
            lambda src, msg: received.append(msg),
        )
        await a.start()
        await b.start()
        assert await a.wait_outbound_connected(5.0)

        big = FwdData(
            message_id=MessageId(0, 1), origin=0,
            payload=bytes(range(256)) * 4096, payload_size=1 << 20,
            view_id=0, piggybacked=[],
        )
        a.send(1, big)
        for _ in range(500):
            if received:
                break
            await asyncio.sleep(0.01)
        assert received == [big]

        # One turn's sends leave as one batch frame: 4 x 100 KB > 256 KB.
        batch = [
            FwdData(
                message_id=MessageId(0, seq), origin=0,
                payload=bytes([seq]) * 100_000, payload_size=100_000,
                view_id=0, piggybacked=[],
            )
            for seq in range(2, 6)
        ] + [AckBatch(acks=[], view_id=0)]
        for message in batch:
            a.send(1, message)
        for _ in range(500):
            if len(received) >= 1 + len(batch):
                break
            await asyncio.sleep(0.01)
        assert received[1:] == batch
        assert a.batches_sent == b.batches_received == 1
        assert b.frames_received == 1 + len(batch)
        assert b.bytes_received == a.bytes_sent
        assert b.rx_chunks >= 2
        await a.close()
        await b.close()

    asyncio.run(main())


# -- observability ----------------------------------------------------------
def test_rx_counters_and_frames_per_chunk_histogram():
    telemetry = Telemetry()
    harness = _Harness(telemetry=telemetry)
    messages = [_data(seq, b"x" * 10) for seq in range(6)]
    stream = _stream(messages[:2] + [FrameBatch(messages=messages[2:])])
    hello = len(encode_frame(Hello(node_id=PEER)))
    one = len(encode_frame(messages[0]))
    # Hello alone, a frame and a half, the rest.
    harness.feed(stream, [hello, one + one // 2])
    assert harness.owner.rx_chunks == 3
    assert telemetry.histogram("transport_rx_frames_per_chunk").samples == [
        0, 1, 5,
    ]
    assert harness.owner.frames_received == 6
    assert {"rx_chunks", "rx_compacted_bytes"} <= set(_TRANSPORT_COUNTERS)


def test_decode_is_looked_up_by_module_name_per_frame(monkeypatch):
    """bench/tracing.py rebinds ``transport.decode_message`` after import;
    the receive path must go through the module-level name."""
    seen = []
    original = transport_module.decode_message

    def traced(body):
        seen.append(len(body))
        return original(body)

    harness = _Harness()
    monkeypatch.setattr(transport_module, "decode_message", traced)
    harness.feed(_stream([_GOOD]))
    assert len(seen) == 2  # Hello + the frame
    assert [entry[2] for entry in harness.upcalls] == [_GOOD]
