"""A node journals once per loop turn, ahead of the turn's socket writes.

A socket-free serve node — the real ``LiveNode`` stack with its session
server, its ring transport fed bytes through the receive harness and
writing to a stub successor connection, one client connection on a stub
transport — takes a batch frame carrying the leader's copy of its own
``@batch`` of k session commands.  That turn delivers the message and
applies the k commands.  Counted, not timed, in one log of writes:

* the turn makes exactly one journal write, holding every line the turn
  journalled (k ``apply`` lines, the ``delivery`` and the
  ``app_delivery``);
* that write comes before the turn's ring write (made inside the turn,
  before the next frame is decoded) and before the k replies, which
  leave in one later write.

Without the flush ahead of each socket write, the batch frame's ring
write would leave before the journal's end-of-turn write.
"""

import asyncio
import json

from repro.core.fsr.messages import SeqData
from repro.live.codec import FrameBatch
from repro.live.config import LiveClusterSpec, LiveNodeConfig
from repro.live.node import LiveNode
from repro.serve import server as server_module
from repro.serve.wire import FrameSlicer, Request, decode_response, encode_request
from repro.types import MessageId
from tests.live.test_transport_receive import (
    _connect_successor,
    _Harness,
    _stream,
)

ME = 1
K = 5


class _Client:
    """The stub transport of one client connection, logging its writes."""

    def __init__(self, log):
        self.log = log
        self.closed = False

    def write(self, data):
        self.log.append(("reply", bytes(data)))

    def close(self):
        self.closed = True

    abort = close

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        pass

    def resume_reading(self):
        pass


class _JournalFile:
    """Stands in for the journal's file object, logging its writes."""

    def __init__(self, log, fh):
        self.log = log
        self.fh = fh

    def write(self, data):
        self.log.append(("journal", data))
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()

    def close(self):
        self.fh.close()


async def _turns(count=4):
    for _ in range(count):
        await asyncio.sleep(0)


def test_a_turn_is_one_journal_write_ahead_of_its_ring_write_and_replies(
    tmp_path,
):
    async def main():
        loop = asyncio.get_running_loop()
        spec = LiveClusterSpec(
            processes=3, senders=0, serve=True, message_bytes=64,
            batch_bytes=60_000, batch_messages=64, sim_compare=False,
        )
        config = LiveNodeConfig(
            spec=spec, node_id=ME,
            ring_addresses=[{pid: ("127.0.0.1", 0) for pid in range(3)}],
            serve_addr=("127.0.0.1", 0),
            journal_path=str(tmp_path / "journal.jsonl"),
        )
        node = LiveNode(config, loop, asyncio.Event())
        log = []
        node.journal._fh = _JournalFile(log, node.journal._fh)
        wire = _connect_successor(node.transport)
        wire.write = lambda data: log.append(("ring", bytes(data)))
        harness = _Harness(owner=node.transport)
        payloads = []
        broadcast = node.process.broadcast

        def recorded_broadcast(payload):
            payloads.append(payload)
            return broadcast(payload)

        node.process.broadcast = recorded_broadcast
        node.process.start()
        conn = server_module._Connection(node.serve_server)
        conn.connection_made(_Client(log))

        # k writes in one chunk: one @batch broadcast, sent to the ring.
        conn.data_received(b"".join(
            encode_request(Request(
                client="c", seq=seq, first_unacked=1, barrier=0,
                op="put", args=(f"k{seq}", "v"),
            ))
            for seq in range(1, K + 1)
        ))
        await _turns()
        assert len(payloads) == 1
        assert [kind for kind, _ in log] == ["ring"]
        del log[:]
        writes = node.journal.writes

        # The leader's copy comes back: this node is p_t, so it delivers.
        harness.feed(_stream([FrameBatch(messages=[SeqData(
            MessageId(ME, 1), ME, payloads[0], len(payloads[0]), 1, False, 0,
        )])]))
        assert [kind for kind, _ in log] == ["journal", "ring"]
        assert node.journal.writes == writes + 1
        await _turns()
        assert [kind for kind, _ in log] == ["journal", "ring", "reply"]
        assert node.journal.writes == writes + 1

        lines = [json.loads(line) for line in log[0][1].splitlines()]
        assert sorted(line["type"] for line in lines) == sorted(
            ["apply"] * K + ["delivery", "app_delivery"]
        )
        assert [
            (line["client"], line["seq"]) for line in lines
            if line["type"] == "apply"
        ] == [("c", seq) for seq in range(1, K + 1)]
        replies = [
            decode_response(body) for body in FrameSlicer().feed(log[2][1])
        ]
        assert [(r.seq, r.ok) for r in replies] == [
            (seq, True) for seq in range(1, K + 1)
        ]
        await node.record()

    asyncio.run(main())
