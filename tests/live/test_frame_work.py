"""A batch frame is one unit of work from socket to record: counts.

A socket-free live node — the real ``LiveNode`` stack, its ring
transport fed bytes through the receive harness and writing to a stub
successor connection — takes frames of sequenced copies of its own
messages from its predecessor.  Counted, not timed:

* per batch frame, exactly one ``_pump`` and one GC pass, and one ring
  write before the next frame is decoded;
* no ``call_soon`` per own delivery: one pending refill per loop turn
  covers every delivery that turn;
* a plain frame keeps its own pump per message and the one write at the
  end of the turn (the unbatched serve ring depends on both);
* with ``shards=2`` each ring's batch frames go to that ring's inner
  automaton.
"""

import asyncio

from repro.core.fsr.messages import SeqData
from repro.live.codec import FrameBatch
from repro.live.config import LiveClusterSpec, LiveNodeConfig
from repro.live.node import LiveNode
from repro.types import MessageId
from tests.live.test_transport_receive import (
    _connect_successor,
    _Harness,
    _stream,
)

ME = 1
WINDOW = 6


class _CountingNode:
    """Node 1 of a three-member ring (position ``t``: a copy from the
    leader makes its messages stable and delivers them), counted."""

    def __init__(self, loop):
        spec = LiveClusterSpec(
            processes=3, senders=3, message_bytes=64, window=WINDOW,
            batch_bytes=60_000, batch_messages=64, sim_compare=False,
        )
        config = LiveNodeConfig(
            spec=spec, node_id=ME,
            ring_addresses=[{pid: ("127.0.0.1", 0) for pid in range(3)}],
        )
        node = self.node = LiveNode(config, loop, asyncio.Event())
        process = self.process = node.process
        self.wire = _connect_successor(node.transport)
        self.harness = _Harness(owner=node.transport)
        self.pumps = 0
        self.gc_passes = 0
        #: Ring writes made before each batch frame was handed up.
        self.writes_at_frame = []
        self.refills_scheduled = 0

        pump, maybe_gc = process._pump, process._maybe_gc
        on_messages = node.transport.on_messages
        call_soon = loop.call_soon

        def counted_pump():
            self.pumps += 1
            pump()

        def counted_gc():
            if not process._in_frame:  # a deferred call collects nothing
                self.gc_passes += 1
            maybe_gc()

        def counted_frame(src, messages):
            self.writes_at_frame.append(len(self.wire.writes))
            on_messages(src, messages)

        def counted_call_soon(callback, *args, **kwargs):
            if callback == node._refill:
                self.refills_scheduled += 1
            return call_soon(callback, *args, **kwargs)

        process._pump = counted_pump
        process._maybe_gc = counted_gc
        node.transport.on_messages = counted_frame
        loop.call_soon = counted_call_soon
        process.start()
        node._refill()  # WINDOW own broadcasts, local_seq 1..WINDOW
        self.next_seq = 1

    def sequenced(self, count):
        """The leader's copies of this node's next ``count`` messages."""
        copies = []
        for _ in range(count):
            seq = self.next_seq
            self.next_seq += 1
            copies.append(SeqData(
                MessageId(ME, seq), ME, bytes(64), 64, seq, False, 0,
            ))
        return copies

    def reset(self):
        self.pumps = self.gc_passes = self.refills_scheduled = 0
        self.wire.writes.clear()
        del self.writes_at_frame[:]


async def _turn():
    await asyncio.sleep(0)
    await asyncio.sleep(0)


def test_a_batch_frame_is_one_pump_one_gc_pass_and_one_write():
    async def main():
        counted = _CountingNode(asyncio.get_running_loop())
        await _turn()  # the first broadcasts leave
        counted.reset()
        frames = [FrameBatch(messages=counted.sequenced(3)) for _ in range(2)]
        counted.harness.feed(_stream(frames))
        assert counted.node.transport.rx_chunks == 1  # one turn, two frames
        assert counted.process.last_delivered_sequence == 6
        assert counted.pumps == 2
        assert counted.gc_passes == 2
        # Frame one's answer is on the wire before frame two is handed up.
        assert counted.writes_at_frame == [0, 1]
        assert len(counted.wire.writes) == 2
        # Six own deliveries, one pending refill.
        assert counted.refills_scheduled == 1
        assert counted.node.outstanding == 0
        await _turn()
        assert counted.node.outstanding == WINDOW
        assert len(counted.node.rows["broadcast"]) == 2 * WINDOW

    asyncio.run(main())


def test_plain_frames_keep_a_pump_each_and_the_turn_end_write():
    async def main():
        counted = _CountingNode(asyncio.get_running_loop())
        await _turn()
        counted.reset()
        counted.harness.feed(_stream(counted.sequenced(4)))
        assert counted.process.last_delivered_sequence == 4
        assert counted.pumps == 4
        assert counted.writes_at_frame == []
        assert counted.wire.writes == []  # not before the turn ends
        assert counted.refills_scheduled == 1
        await _turn()
        assert len(counted.wire.writes) == 1

    asyncio.run(main())


def test_each_ring_hands_its_batch_frames_to_its_own_automaton():
    async def main():
        spec = LiveClusterSpec(
            processes=3, senders=3, shards=2, batch_bytes=60_000,
            sim_compare=False,
        )
        config = LiveNodeConfig(
            spec=spec, node_id=ME,
            ring_addresses=[
                {pid: ("127.0.0.1", 0) for pid in range(3)} for _ in range(2)
            ],
        )
        node = LiveNode(config, asyncio.get_running_loop(), asyncio.Event())
        assert [t.on_messages for t in node.transports] == [
            inner.on_messages for inner in node.process.inner
        ]

    asyncio.run(main())
