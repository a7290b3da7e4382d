"""``on_messages`` is ``on_message`` per message behind a closed gate.

A batch frame is one unit of automaton work: ``FSRProcess.on_messages``
handles its messages in wire order with every per-message view, blocked
and stopped check, collects garbage once and pumps once at the end.
The property: two identical null rings run in lockstep, and every
frame for the leader goes to one ring's leader through ``on_messages``
and to the other's one message at a time (``on_message``) with the TX
gate closed, followed by one pump.  At the end of every frame the two
leaders agree on the delivered order, the retained records and their
indexes, the stability prefix, the GC cursor and the future-view
buffer, and they sent the same messages (acks included).

The generated frames carry real ring traffic — acks for the leader's
own messages among it — plus a future-view message, a stale-view one
and, once any has been delivered, a duplicate ``FwdData`` of a
delivered message (what a resend after reconnect looks like).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsr.messages import FwdData, SeqData
from repro.types import MessageId, View
from tests.fsr.nullring import NullRing

LEADER = 0
PREDECESSOR = 2
MEMBERS = (0, 1, 2)
VIEW = 1


def _state(process):
    return (
        dict(process._records),
        dict(process._seq_of),
        dict(process._known_payloads),
        process._consumed_prefix,
        process._gc_cursor,
        list(process._future_buffer),
        process.last_delivered_sequence,
    )


def _off_view(view_id, local_seq):
    return FwdData(
        MessageId(1, local_seq), 1, b"v", 1, view_id, -1, [],
    )


class _Lockstep:
    """Ring ``a`` takes the leader's frames whole, ring ``b`` one by one."""

    def __init__(self):
        self.gate = [True]
        self.a = NullRing(n=3, t=1)
        self.b = NullRing(n=3, t=1, tx_gate=lambda: self.gate[0])
        for ring in (self.a, self.b):
            # View 1, so that view 0 traffic is stale.
            for process in ring.processes:
                process.on_view(View(VIEW, MEMBERS), None)
        #: FwdData the leader was handed, for resending.
        self.forwarded = []
        self.extras = {"future": 0, "stale": 0, "duplicate": 0}

    def broadcast(self, sender):
        for ring in (self.a, self.b):
            ring.processes[sender].broadcast(b"x" * 8)

    def step(self, data, max_frame):
        """Hand the next frame or message on; False once both are quiet."""
        a, b = self.a, self.b
        assert list(a.fifo) == list(b.fifo)
        if not a.fifo:
            return False
        dst, src, message = a.fifo[0]
        if dst != LEADER:
            for ring in (a, b):
                ring.fifo.popleft()
                ring.handlers[dst](src, message)
            return True
        frame = []
        while a.fifo and a.fifo[0][0] == LEADER and len(frame) < max_frame:
            frame.append(a.fifo[0][2])
            a.fifo.popleft()
            b.fifo.popleft()
        self._add_extras(frame, data)
        delivered = a.processes[LEADER]._delivered_ids
        for message in frame:
            if isinstance(message, FwdData) and message.view_id == VIEW:
                if message.message_id in delivered:
                    self.extras["duplicate"] += 1
                else:
                    self.forwarded.append(message)
        sent_before = len(a.sent)
        leader_a, leader_b = a.processes[LEADER], b.processes[LEADER]
        leader_a.on_messages(PREDECESSOR, frame)
        self.gate[0] = False
        for message in frame:
            leader_b.on_message(PREDECESSOR, message)
        self.gate[0] = True
        leader_b.on_tx_ready()  # the one pump
        assert a.delivered[LEADER] == b.delivered[LEADER]
        assert _state(leader_a) == _state(leader_b)
        # The same messages in the same order: the acks sent (riding or
        # standalone) are the same multiset, and the rings stay in step.
        assert a.sent[sent_before:] == b.sent[sent_before:]
        return True

    def _add_extras(self, frame, data):
        def insert(message, kind):
            frame.insert(data.draw(st.integers(0, len(frame))), message)
            self.extras[kind] += 1

        local_seq = 1000 + sum(self.extras.values())
        insert(_off_view(VIEW + 1, local_seq), "future")
        insert(_off_view(VIEW - 1, local_seq + 1), "stale")
        delivered = self.a.processes[LEADER]._delivered_ids
        done = [m for m in self.forwarded if m.message_id in delivered]
        if done and data.draw(st.booleans()):
            frame.insert(
                data.draw(st.integers(0, len(frame))),
                data.draw(st.sampled_from(done)),
            )

    def resend(self):
        """Put every FwdData the leader was handed on the wire again."""
        for ring in (self.a, self.b):
            for message in self.forwarded:
                ring.inject(LEADER, PREDECESSOR, message)


@given(
    data=st.data(),
    senders=st.lists(st.sampled_from(MEMBERS), max_size=10),
    max_frame=st.integers(min_value=1, max_value=6),
    waves=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_on_messages_is_each_message_behind_a_closed_gate(
    data, senders, max_frame, waves
):
    run = _Lockstep()
    for _ in range(waves):
        # The leader's own messages bring acks for them back to it; a
        # follower's bring FwdData, which a later frame resends.
        for sender in [LEADER, 1] + senders:
            run.broadcast(sender)
        while run.step(data, max_frame):
            pass
    run.resend()  # delivered and collected by now
    while run.step(data, max_frame):
        pass
    leader = run.a.processes[LEADER]
    assert run.a.delivered == run.b.delivered
    assert all(
        len(log) == waves * (2 + len(senders))  # no duplicate delivered
        for log in run.a.delivered.values()
    )
    assert run.extras["future"] and run.extras["stale"]
    assert run.extras["duplicate"]
    assert leader._gc_cursor > 0  # frames did collect


def test_a_frame_of_sequenced_copies_collects_once_at_its_end():
    """Deliveries inside a frame defer collection; the frame's end runs it."""
    ring = NullRing(n=3, t=1)
    follower = ring.processes[1]  # the last backup: stabilises and delivers
    copies = [
        SeqData(MessageId(2, seq), 2, b"s", 1, seq, False, 0, -1, [])
        for seq in (1, 2, 3)
    ]
    # The watermark rides on the last copy: everything is collectable.
    copies[-1].watermark = 3
    follower.on_messages(0, copies)
    assert follower.last_delivered_sequence == 3
    assert follower._gc_cursor == 3 and follower.retained_count == 0
    assert not follower._in_frame
