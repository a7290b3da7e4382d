"""Transport behaviour under peer death: requeue, retarget, control plane.

These pin the transport-level half of live view changes: a successor
dying mid-stream must not lose queued frames (they redeliver exactly
once when it returns), ``retarget`` must re-point the ring hop and
reopen the TX gate, and the control-plane mesh must carry membership
traffic to arbitrary peers.  The first two hold with the fast path on
as well: a batch is dequeued only once it is drained.
"""

import asyncio
import socket

import pytest

from repro.core.batching import BatchingConfig
from repro.core.fsr.messages import FwdData
from repro.errors import NetworkError
from repro.live.transport import RingTransport
from repro.types import MessageId


def _free_port():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _message(seq, origin=0):
    return FwdData(
        message_id=MessageId(origin, seq),
        origin=origin,
        payload=b"x" * 32,
        payload_size=32,
        view_id=0,
        piggybacked=[],
    )


async def _drain_until(predicate, timeout=5.0):
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


BATCHING = pytest.mark.parametrize(
    "batching", [None, BatchingConfig()], ids=["unbatched", "batched"]
)


@BATCHING
def test_mid_stream_kill_requeues_then_redelivers_exactly_once(batching):
    """Frames queued while the successor is down arrive exactly once
    after it restarts on the same port, and backpressure reopens."""

    async def main():
        port_a, port_b = _free_port(), _free_port()
        received = []
        a = RingTransport(
            0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
            lambda src, msg: None,
            reconnect_base_s=0.02,
            max_outbound_bytes=200,
            max_retries=None,
            batching=batching,
        )
        b = RingTransport(
            1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
            lambda src, msg: received.append(msg),
        )
        reopened = []
        a.on_tx_idle(lambda: reopened.append(True))
        await a.start()
        await b.start()
        assert await a.wait_outbound_connected(5.0)

        for seq in range(1, 4):
            a.send(1, _message(seq))
        assert await _drain_until(lambda: len(received) == 3)

        # Successor dies mid-stream; the link reads the EOF and drops
        # back to dialling.
        await b.close()
        assert await _drain_until(lambda: not a._ring.connected.is_set())

        # Everything sent while down must queue (gate closes), not
        # vanish into a dead socket.
        batch_two = [_message(seq) for seq in range(4, 10)]
        for message in batch_two:
            a.send(1, message)
        assert a.queued_bytes > 0
        assert not a.tx_ready

        received_after = []
        b2 = RingTransport(
            1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
            lambda src, msg: received_after.append(msg),
        )
        await b2.start()
        assert await _drain_until(lambda: len(received_after) == 6)
        # Exactly once, in order, nothing duplicated from batch one.
        assert received_after == batch_two
        assert len(received) == 3
        # Backpressure reopened once the queue drained.
        assert await _drain_until(lambda: a.tx_ready)
        assert reopened
        assert a.reconnects >= 1
        assert a.failure is None  # max_retries=None never gives up
        await a.close()
        await b2.close()

    asyncio.run(main())


@BATCHING
def test_retarget_repoints_ring_and_reopens_gate(batching):
    async def main():
        port_a, port_b, port_c = _free_port(), _free_port(), _free_port()
        at_c = []
        a = RingTransport(
            0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
            lambda src, msg: None,
            reconnect_base_s=0.02,
            max_outbound_bytes=100,
            max_retries=None,
            batching=batching,
        )
        c = RingTransport(
            2, ("127.0.0.1", port_c), 0, ("127.0.0.1", port_a),
            lambda src, msg: at_c.append(msg),
        )
        reopened = []
        a.on_tx_idle(lambda: reopened.append(True))
        await a.start()
        await c.start()

        # Successor 1 never exists; the queue backs up and the gate
        # closes — the state a crashed successor leaves behind.
        a.send(1, _message(1))
        a.send(1, _message(2))
        assert not a.tx_ready

        # View change: new ring successor is 2.  Stale queued frames
        # are dropped (the protocol rebroadcasts through recovery),
        # the gate reopens, and new traffic flows to 2.
        a.retarget(2, ("127.0.0.1", port_c))
        assert a.retargets == 1
        assert a.queued_bytes == 0
        assert await _drain_until(lambda: a.tx_ready and bool(reopened))

        with pytest.raises(NetworkError, match="successor"):
            a.send(1, _message(3))  # old successor now rejected

        fresh = _message(7)
        a.send(2, fresh)
        assert await _drain_until(lambda: at_c == [fresh])

        # Retargeting to the current successor is a no-op.
        a.retarget(2, ("127.0.0.1", port_c))
        assert a.retargets == 1
        await a.close()
        await c.close()

    asyncio.run(main())


def test_control_plane_round_trip_and_prune():
    async def main():
        port_a, port_b = _free_port(), _free_port()
        peers = {
            0: ("127.0.0.1", port_a),
            1: ("127.0.0.1", port_b),
        }
        seen = []
        a = RingTransport(
            0, ("127.0.0.1", port_a), 1, ("127.0.0.1", port_b),
            lambda src, msg: None,
            peers=peers,
        )
        b = RingTransport(
            1, ("127.0.0.1", port_b), 0, ("127.0.0.1", port_a),
            lambda src, msg: None,
            peers=peers,
        )
        b.on_control = lambda layer, src, inner: seen.append(
            (layer, src, inner)
        )
        await a.start()
        await b.start()

        a.send_control(1, "fd", {"beat": 1})
        a.send_control(1, "vsc", ("flush", 7))
        assert await _drain_until(lambda: len(seen) == 2)
        assert seen == [("fd", 0, {"beat": 1}), ("vsc", 0, ("flush", 7))]
        assert a.control_frames_sent == 2
        assert b.control_frames_received == 2
        # Control traffic never pollutes the ring data counters.
        assert a.frames_sent == 0 and b.frames_received == 0

        with pytest.raises(NetworkError):
            a.send_control(0, "fd", "self")  # no loopback-to-self
        with pytest.raises(NetworkError):
            a.send_control(9, "fd", "who")  # unknown peer

        a.prune_control_peers({0})  # view excluded node 1
        assert not a._control_peers
        await a.close()
        await b.close()

    asyncio.run(main())
