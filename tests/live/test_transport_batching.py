"""Transport fast-path tests: coalescing, ack riding, wire parity.

Real loopback sockets throughout.  The load-bearing claims:

* with batching enabled, what one event-loop turn queued leaves when
  that turn ends, as one batch frame per ``max_batch_messages`` and in
  FIFO order; sends of two turns are not merged; no timer is involved
  and ``max_delay_s`` is not consulted;
* with a shaper attached nothing is written ahead of its release time;
* pending ``AckBatch``es ride the same flush as data frames
  (``acks_ridden``) instead of paying their own syscall;
* with batching *disabled* the byte stream is exactly the unbatched
  wire: ``Hello`` frame followed by each message's plain frame — the
  parity that keeps sim/live throughput comparable — and its drain task
  is woken the way it was before there was a batched path;
* a lone message under batching still ships as a plain frame;
* the control peer coalesces queued frames per wakeup;
* config validation and serde match the sim path.
"""

import asyncio
import socket
import time

import pytest

from repro.core.batching import BatchingConfig
from repro.core.fsr.messages import AckBatch, AckMsg, FwdData
from repro.errors import ConfigurationError
from repro.live.codec import Hello, encode_frame
from repro.live.node import LiveNodeConfig
from repro.live.runner import LiveClusterSpec, forwarded_fields
from repro.live.transport import RingTransport
from repro.types import MessageId


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _sample_message(seq=1, payload=64):
    return FwdData(
        message_id=MessageId(0, seq),
        origin=0,
        payload=b"p" * payload,
        payload_size=payload,
        view_id=0,
        piggybacked=[AckMsg(MessageId(1, 2), 3, True, 0)],
    )


def _pair(port_a, port_b, received, batching):
    a = RingTransport(
        0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
        lambda src, msg: None,
        batching=batching,
    )
    b = RingTransport(
        1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
        lambda src, msg: received.append((src, msg)),
    )
    return a, b


def test_one_turn_of_sends_leaves_when_the_turn_ends():
    async def main():
        received = []
        cap = 4
        a, b = _pair(
            _free_port(), _free_port(), received,
            BatchingConfig(max_batch_messages=cap),
        )
        await a.start()
        await b.start()
        assert await a.wait_outbound_connected(5.0)

        messages = [_sample_message(seq) for seq in range(2 * cap + 3)]
        for message in messages:
            a.send(1, message)  # one loop turn, no await in between
        assert a.flushes == 0  # send() only queues
        await asyncio.sleep(0)  # the turn ends
        assert a.flushes == 3  # ceil(11 / 4), nothing left waiting
        assert a.frames_sent == len(messages)
        assert a.queued_bytes == 0

        # A later turn's sends are a flush of their own, not held back
        # to join anything.
        late = [_sample_message(seq) for seq in range(100, 102)]
        for message in late:
            a.send(1, message)
        await asyncio.sleep(0)
        assert a.flushes == 4

        for _ in range(200):
            if len(received) >= len(messages) + len(late):
                break
            await asyncio.sleep(0.01)
        assert [entry[1] for entry in received] == messages + late  # FIFO
        assert all(entry[0] == 0 for entry in received)
        assert b.frames_received == len(messages) + len(late)
        assert a.batches_sent == b.batches_received == 4
        assert a.batched_frames == len(messages) + len(late)
        await a.close()
        await b.close()

    asyncio.run(main())


class _FixedDelayShaper:
    """Stands in for ``NetShaper``: every frame is due ``delay_s`` after
    it was queued, no link is ever blocked."""

    def __init__(self, delay_s):
        self.delay_s = delay_s

    def plan(self, dst, nbytes, now, channel="ring"):
        return now + self.delay_s

    def is_blocked(self, dst):
        return False


def test_shaped_frames_are_never_written_ahead_of_their_release():
    async def main():
        delay_s = 0.15
        arrivals = []
        port_a, port_b = _free_port(), _free_port()
        a = RingTransport(
            0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
            lambda src, msg: None,
            batching=BatchingConfig(),
            shaper=_FixedDelayShaper(delay_s),
        )
        b = RingTransport(
            1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
            lambda src, msg: arrivals.append((time.monotonic(), msg)),
        )
        await a.start()
        await b.start()
        assert await a.wait_outbound_connected(5.0)

        messages = [_sample_message(seq) for seq in range(10)]
        queued_at = time.monotonic()
        for message in messages:
            a.send(1, message)
        await asyncio.sleep(0)  # the turn ends; the release time has not come
        assert a.flushes == a.frames_sent == 0

        for _ in range(300):
            if len(arrivals) >= len(messages):
                break
            await asyncio.sleep(0.01)
        assert [msg for _, msg in arrivals] == messages
        assert min(at for at, _ in arrivals) - queued_at >= delay_s
        await a.close()
        await b.close()

    asyncio.run(main())


def test_ack_batch_rides_with_data_frames():
    async def main():
        received = []
        a, b = _pair(_free_port(), _free_port(), received, BatchingConfig())
        await a.start()
        await b.start()
        assert await a.wait_outbound_connected(5.0)

        data = _sample_message(1)
        acks = AckBatch(
            acks=[AckMsg(MessageId(0, 1), 7, False, 0)],
            view_id=0, watermark=3,
        )
        a.send(1, data)
        a.send(1, acks)  # same turn: one flush carries both
        for _ in range(200):
            if len(received) >= 2:
                break
            await asyncio.sleep(0.01)

        assert [entry[1] for entry in received] == [data, acks]
        assert a.acks_ridden == 1  # shared a flush with the data frame
        await a.close()
        await b.close()

    asyncio.run(main())


async def _capture_stream(port, chunks, stop):
    async def handle(reader, writer):
        while not reader.at_eof():
            data = await reader.read(65536)
            if not data:
                break
            chunks.append(data)
        stop.set()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", port)


def _raw_wire_bytes(transport_factory, messages):
    """Bytes a transport puts on the wire for ``messages``, captured by
    a raw TCP sink standing in for the successor."""

    async def main():
        port = _free_port()
        chunks, stop = [], asyncio.Event()
        server = await _capture_stream(port, chunks, stop)
        transport = transport_factory(port)
        await transport.start()
        assert await transport.wait_outbound_connected(5.0)
        for message in messages:
            transport.send(1, message)
        for _ in range(200):
            if transport.queued_bytes == 0:
                break
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # let the sink read the tail
        await transport.close()
        server.close()
        await server.wait_closed()
        return b"".join(chunks)

    return asyncio.run(main())


def test_disabled_batching_is_byte_identical_on_the_wire():
    messages = [_sample_message(seq) for seq in range(5)]
    wire = _raw_wire_bytes(
        lambda port: RingTransport(
            0, ("127.0.0.1", _free_port()), 1, ("127.0.0.1", port),
            lambda src, msg: None,
        ),
        messages,
    )
    expected = encode_frame(Hello(node_id=0)) + b"".join(
        encode_frame(message) for message in messages
    )
    assert wire == expected


def test_disabled_batching_keeps_its_own_wake_up():
    """The turn-end wake-up belongs to the batched path.  Unbatched, the
    drain task is still woken through event -> waiter task -> ``wait``
    (three loop iterations), so workloads that do not batch run the
    schedule they always ran."""

    async def main():
        received = []
        a, b = _pair(_free_port(), _free_port(), received, None)
        await a.start()
        await b.start()
        assert await a.wait_outbound_connected(5.0)
        await asyncio.sleep(0.05)  # the drain task is asleep on an empty queue

        a.send(1, _sample_message(1))
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert a.flushes == 0  # the batched path would have written by now
        await asyncio.sleep(0)
        assert a.flushes == 1
        await a.close()
        await b.close()

    asyncio.run(main())


def test_lone_message_ships_at_once_as_a_plain_frame_whatever_the_delay():
    """``max_delay_s`` is the simulator's dial: with ten seconds of it
    configured, a lone frame still reaches the wire straight away."""

    async def main():
        port = _free_port()
        chunks, stop = [], asyncio.Event()
        server = await _capture_stream(port, chunks, stop)
        transport = RingTransport(
            0, ("127.0.0.1", _free_port()), 1, ("127.0.0.1", port),
            lambda src, msg: None,
            batching=BatchingConfig(max_delay_s=10),
        )
        await transport.start()
        assert await transport.wait_outbound_connected(5.0)
        message = _sample_message(1)
        expected = encode_frame(Hello(node_id=0)) + encode_frame(message)
        sent_at = time.monotonic()
        transport.send(1, message)
        while len(b"".join(chunks)) < len(expected):
            assert time.monotonic() - sent_at < 1.0
            await asyncio.sleep(0.005)
        assert b"".join(chunks) == expected
        assert transport.batches_sent == 0
        await transport.close()
        server.close()
        await server.wait_closed()

    asyncio.run(main())


def test_control_peer_coalesces_queued_frames():
    async def main():
        port_a, port_b = _free_port(), _free_port()
        received = []
        a = RingTransport(
            0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
            lambda src, msg: None,
            peers={1: ("127.0.0.1", port_b)},
        )
        b = RingTransport(
            1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
            lambda src, msg: None,
        )
        b.on_control = lambda layer, src, inner: received.append(
            (layer, src, inner)
        )
        await a.start()
        await b.start()
        for index in range(8):
            a.send_control(1, "fd", {"beat": index})
        for _ in range(200):
            if len(received) >= 8:
                break
            await asyncio.sleep(0.01)
        assert [entry[2]["beat"] for entry in received] == list(range(8))
        assert all(entry[:2] == ("fd", 0) for entry in received)
        assert a.control_frames_sent == 8
        await a.close()
        await b.close()

    asyncio.run(main())


def test_node_config_batch_serde_round_trip():
    addresses = {0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)}
    config = LiveNodeConfig(
        node_id=0,
        members=[0, 1],
        addresses=addresses,
        batch_bytes=4096,
    )
    restored = LiveNodeConfig.from_dict(config.to_dict())
    assert restored.batch_config() == BatchingConfig(
        max_batch_bytes=4096,
        max_batch_messages=BatchingConfig().max_batch_messages,
    )
    # The delay is the simulator's dial: a spec that sets it alone is
    # valid, and the node configs it launches have batching off.
    delay_only = LiveClusterSpec(processes=2, batch_delay_s=0.001)
    assert LiveNodeConfig(
        node_id=0,
        members=[0, 1],
        addresses=addresses,
        **forwarded_fields(delay_only),
    ).batch_config() is None
    # All-None means batching off, surviving serde too.
    plain = LiveNodeConfig(
        node_id=0,
        members=[0, 1],
        addresses={0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)},
    )
    assert LiveNodeConfig.from_dict(plain.to_dict()).batch_config() is None


def test_nonpositive_batch_config_rejected_everywhere():
    with pytest.raises(ConfigurationError):
        LiveNodeConfig(
            node_id=0,
            members=[0, 1],
            addresses={0: ("127.0.0.1", 1), 1: ("127.0.0.1", 2)},
            batch_bytes=0,
        )
    with pytest.raises(ConfigurationError):
        LiveClusterSpec(processes=2, batch_messages=-1)
    with pytest.raises(ConfigurationError):
        LiveClusterSpec(processes=2, batch_delay_s=-0.5)


def test_cli_batch_flags_parse_on_run_and_live():
    from repro.cli import build_parser

    parser = build_parser()
    for command in (["run"], ["live"]):
        args = parser.parse_args(
            command + ["--batch-bytes", "8192", "--batch-messages", "32",
                       "--batch-delay", "0.001"]
        )
        assert args.batch_bytes == 8192
        assert args.batch_messages == 32
        assert args.batch_delay == 0.001
        defaults = parser.parse_args(command)
        assert defaults.batch_bytes is None
        assert defaults.batch_messages is None
        assert defaults.batch_delay is None
