"""The per-hop path: what it caches, what it allocates, what it skips.

DESIGN.md §5 "per-hop path".  None of this changes what the protocol
does — the behavioural suites cover that — so these tests pin the
three things an optimisation of the path could silently break: the
cached ring geometry, the shape of the per-message records, and the
"free when disabled" rule of the observation logs.
"""

import pickle
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.fsr import FSRConfig, Ring
from repro.core.fsr.holdback import HoldbackEntry
from repro.core.fsr.messages import AckBatch, AckMsg, FwdData, SeqData
from repro.core.fsr.process import FSRProcess
from repro.core.fsr.recovery import FSRFlushState, RetainedMessage
from repro.core.fsr.segmentation import Segment
from repro.failure.detector import StaticDetector
from repro.live.codec import ControlFrame, decode_message, encode_message
from repro.net.dispatch import SilentPort
from repro.sim.trace import TraceLog
from repro.types import Delivery, MessageId, View
from repro.vsc.membership import FlushState, GroupMembership
from tests.fsr.nullring import CountingScheduler, NullRing

ME = 7


# ----------------------------------------------------------------------
# Free when disabled
# ----------------------------------------------------------------------
def test_disabled_logs_read_no_clock_and_format_no_id(monkeypatch):
    formatted = []
    original = MessageId.__str__
    monkeypatch.setattr(
        MessageId, "__str__",
        lambda self: formatted.append(self) or original(self),
    )
    ring = NullRing(n=3, t=1)  # trace off, spans off, no protocol callback
    ring.sched.now_reads = 0  # installing the bootstrap view may read it
    for i in range(100):
        ring.broadcast(i % 3)
    assert [len(log) for log in ring.delivered.values()] == [100, 100, 100]
    assert ring.sched.now_reads == 0
    assert formatted == []


def test_enabled_trace_records_the_same_run_as_before():
    """One broadcast from each process, trace on: the record list as the
    unguarded emit sites produced it (generated before they were guarded)."""
    trace = TraceLog(enabled=True)
    ring = NullRing(n=3, t=1, trace=trace)
    for sender in (2, 0, 1):
        ring.broadcast(sender)
    assert [str(record) for record in trace.records("fsr")] == [
        "[0.000000] fsr view me=0 members=(0, 1, 2) position=0 view_id=0",
        "[0.000000] fsr view me=1 members=(0, 1, 2) position=1 view_id=0",
        "[0.000000] fsr view me=2 members=(0, 1, 2) position=2 view_id=0",
        "[0.000000] fsr sequence me=0 msg=m2.1 seq=1 stable=False",
        "[0.000000] fsr deliver me=1 msg=m2.1 seq=1",
        "[0.000000] fsr deliver me=2 msg=m2.1 seq=1",
        "[0.000000] fsr deliver me=0 msg=m2.1 seq=1",
        "[0.000000] fsr sequence me=0 msg=m0.1 seq=2 stable=False",
        "[0.000000] fsr deliver me=1 msg=m0.1 seq=2",
        "[0.000000] fsr deliver me=2 msg=m0.1 seq=2",
        "[0.000000] fsr deliver me=0 msg=m0.1 seq=2",
        "[0.000000] fsr sequence me=0 msg=m1.1 seq=3 stable=False",
        "[0.000000] fsr deliver me=1 msg=m1.1 seq=3",
        "[0.000000] fsr deliver me=2 msg=m1.1 seq=3",
        "[0.000000] fsr deliver me=0 msg=m1.1 seq=3",
    ]


# ----------------------------------------------------------------------
# The cache is the ring
# ----------------------------------------------------------------------
def _bare_process(t: int) -> FSRProcess:
    sched = CountingScheduler()
    membership = GroupMembership(
        sched, SilentPort(ME), StaticDetector(), me=ME, initial_members=(ME,)
    )
    return FSRProcess(sched, SilentPort(ME), membership, FSRConfig(t=t))


#: One view's members: the others in ring order, and where ``ME`` sits.
_view_members = st.tuples(
    st.lists(st.integers(0, 6), unique=True, max_size=6),
    st.integers(0, 6),
).map(lambda v: tuple(v[0][: v[1]]) + (ME,) + tuple(v[0][v[1]:]))


@settings(max_examples=200, deadline=None)
@given(t=st.integers(0, 6), views=st.lists(_view_members, min_size=1, max_size=6))
# Leader removed, then the ring shrinks to n = 1 with t clamped to 0.
@example(t=2, views=[(0, 1, ME, 3), (1, ME, 3), (ME, 3), (ME,)])
# ME becomes leader, then its successor becomes p_t.
@example(t=1, views=[(0, ME, 2), (ME, 2), (ME, 2, 5)])
def test_cached_geometry_is_what_the_ring_answers(t, views):
    process = _bare_process(t)
    for view_id, members in enumerate(views):
        view = View(view_id=view_id, members=members)
        process.on_view(view, None)
        ring = Ring.from_view(view, t)
        assert process.ring == ring
        assert process._view_id == view_id
        assert process._n == ring.n
        assert process._t == ring.t == min(t, len(members) - 1)
        assert process._position == ring.position_of(ME)
        assert process._successor == ring.successor(ME)
        assert process._is_leader == (ring.leader == ME)
        assert process._successor_is_pt == (
            ring.position_of(ring.successor(ME)) == ring.t
        )


# ----------------------------------------------------------------------
# Record shapes
# ----------------------------------------------------------------------
MID = MessageId(origin=2, local_seq=7)
_RECORD = RetainedMessage(MID, 2, 4, b"abc", 3, (MessageId(2, 6), 1, 3))


def test_message_id_is_a_tuple_with_the_dataclass_surface():
    assert isinstance(MID, tuple)
    assert (MID.origin, MID.local_seq) == (2, 7)
    assert str(MID) == "m2.7"
    assert repr(MID) == "MessageId(origin=2, local_seq=7)"
    assert hash(MID) == hash((2, 7))
    assert MID == MessageId(2, 7) and MID != MessageId(2, 8)
    assert sorted([MessageId(2, 1), MessageId(1, 9), MessageId(1, 2)]) == [
        MessageId(1, 2), MessageId(1, 9), MessageId(2, 1),
    ]
    with pytest.raises(AttributeError):
        MID.origin = 3
    assert pickle.loads(pickle.dumps(MID)) == MID
    assert type(pickle.loads(pickle.dumps(MID))) is MessageId


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="dataclass(slots=True) needs 3.10"
)
@pytest.mark.parametrize("record", [
    AckMsg(MID, 4, True, 0),
    FwdData(MID, 2, b"abc", 3, 0),
    SeqData(MID, 2, b"abc", 3, 4, False, 0),
    AckBatch([], 0),
    _RECORD,
    HoldbackEntry(4, MID, b"abc", 3),
    Segment(MID, 0, 1, b"abc", 3),
    Delivery(0, MID, 4, 0.0, 3),
], ids=lambda record: type(record).__name__)
def test_hot_path_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def test_flush_state_survives_the_control_frame_round_trip():
    """The view change ships retained records (slotted where the
    interpreter can) and tuple ids through the pickled control codec."""
    state = FSRFlushState(
        last_delivered=3, watermark=2,
        records={4: _RECORD, 5: RetainedMessage(MessageId(0, 1), 0, 5, b"", 0)},
    )
    frame = ControlFrame(
        layer="vsc", inner=FlushState(payload=state, size_bytes=state.size_bytes())
    )
    decoded = decode_message(encode_message(frame))
    assert decoded == frame
    restored = decoded.inner.payload.records[4]
    assert type(restored) is RetainedMessage
    assert type(restored.message_id) is MessageId
    assert type(restored.segment[0]) is MessageId
