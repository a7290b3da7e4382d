"""Delivered ids as per-origin watermarks: the same decisions as a set.

``FSRProcess`` remembers every delivered message id, so that a copy of
a ``FwdData`` resent after its message was delivered (and collected) is
not sequenced again.  It keeps them as :class:`DeliveredIds`: per
origin, the highest ``local_seq`` up to which all ids are delivered,
plus the delivered ids past a gap.  The claims:

* two null rings in lockstep, one on the watermarks and one on the
  plain set of every delivered id, deliver the same messages in the
  same order, send the same frames and answer every membership query
  alike, through lost frames, view changes (whose re-broadcasts
  deliver an origin's ids out of order) and late duplicate ``FwdData``;
* the objects the collector tracks stay flat while 100k messages are
  delivered: what is kept is per origin and per message in flight, not
  per message delivered;
* the multiring's inner rings, which draw ids from one counter, share
  one record, so each origin's floor rises with every ring's deliveries.
"""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_all
from repro.core.fsr import FSRConfig
from repro.core.fsr.messages import FwdData
from repro.core.fsr.process import DeliveredIds
from repro.protocols.multiring import MultiRingConfig
from repro.types import MessageId, View
from tests.conftest import run_broadcasts, small_cluster
from tests.fsr.nullring import NullRing

N = 3


class _NoFloor(dict):
    """A floor no id is ever under, and that is never raised."""

    def get(self, key, default=None):
        return -1


class _DeliveredSet(DeliveredIds):
    """The unbounded set of every delivered id that the watermarks replace."""

    def __init__(self):
        self.floor = _NoFloor()
        self.above = set()

    def add(self, origin, local_seq):
        self.above.add((origin, local_seq))


def _on_set(ring):
    for process in ring.processes:
        reference = _DeliveredSet()
        process._delivered_ids = reference
        process._delivered_floor = reference.floor
        process._delivered_above = reference.above
    return ring


def test_the_record_is_exact_in_any_order():
    delivered = DeliveredIds()
    order = [(1, 3), (1, 1), (2, 1), (1, 4), (1, 2), (2, 3), (1, 6)]
    for step, (origin, local_seq) in enumerate(order):
        delivered.add(origin, local_seq)
        done = set(order[:step + 1])
        for candidate in [(o, s) for o in (1, 2, 3) for s in range(1, 8)]:
            assert (candidate in delivered) == (candidate in done), candidate
            assert (MessageId(*candidate) in delivered) == (candidate in done)
    assert delivered.floor == {1: 4, 2: 1}
    assert delivered.above == {(2, 3), (1, 6)}
    gc.collect()  # a collection untracks plain tuples of atoms
    assert not any(gc.is_tracked(entry) for entry in delivered.above)


def test_a_lost_fwd_data_is_a_gap_until_its_re_broadcast():
    ring = NullRing(n=N, t=1)
    first = ring.processes[2].broadcast(b"first")
    (lost,) = ring.fifo
    assert isinstance(lost[2], FwdData)
    ring.fifo.clear()
    second = ring.broadcast(2, b"second")
    for process in ring.processes:
        record = process._delivered_ids
        assert first not in record and second in record
        assert record.floor.get(2, 0) == 0 and record.above == {tuple(second)}
    for process in ring.processes:  # the origin re-broadcasts what is pending
        process.on_view(View(1, tuple(range(N))), None)
    ring.run()
    for process in ring.processes:
        record = process._delivered_ids
        assert first in record and record.floor[2] == 2 and not record.above
    assert {tuple(log) for log in ring.delivered.values()} == {
        ((2, second), (2, first)),
    }


_action = st.one_of(
    st.tuples(st.just("broadcast"), st.integers(0, N - 1)),
    st.tuples(st.just("step"), st.integers(1, 6)),
    st.tuples(st.just("resend"), st.integers(0, 10_000)),
    st.tuples(st.just("drop"), st.just(0)),
    st.tuples(st.just("view"), st.just(0)),
)


def _step(ring, count):
    for _ in range(count):
        if not ring.fifo:
            return
        dst, src, message = ring.fifo.popleft()
        ring.handlers[dst](src, message)


def _apply(ring, action, argument, view):
    if action == "broadcast":
        ring.processes[argument].broadcast(b"m" * 8)
    elif action == "step":
        _step(ring, argument)
    elif action == "resend":
        resent = [frame for frame in ring.sent if isinstance(frame[2], FwdData)]
        if resent:
            ring.inject(*resent[argument % len(resent)])
    elif action == "drop":
        # A FwdData lost on the wire: its origin's next message is
        # sequenced first, and the view change's re-broadcast fills the gap.
        for frame in ring.fifo:
            if isinstance(frame[2], FwdData):
                ring.fifo.remove(frame)
                break
    else:
        for process in ring.processes:
            process.on_view(View(view, tuple(range(N))), None)


def _outcome(ring, action, argument, view):
    try:
        _apply(ring, action, argument, view)
    except Exception as exc:  # the two rings must fail alike, too
        return repr(exc)
    return None


@given(actions=st.lists(_action, max_size=60))
@settings(max_examples=150, deadline=None)
def test_watermarks_decide_as_the_set_does(actions):
    bounded, reference = NullRing(n=N, t=1), _on_set(NullRing(n=N, t=1))
    view = 0
    for action, argument in actions:
        view += action == "view"
        failed = _outcome(bounded, action, argument, view)
        assert failed == _outcome(reference, action, argument, view)
        assert bounded.delivered == reference.delivered
        assert bounded.sent == reference.sent
        if failed:
            return
    for ring in (bounded, reference):
        _step(ring, 10_000)
    assert bounded.delivered == reference.delivered
    assert bounded.sent == reference.sent
    ids = {
        frame[2].message_id
        for frame in bounded.sent if isinstance(frame[2], FwdData)
    }
    for mine, theirs in zip(bounded.processes, reference.processes):
        for message_id in ids:
            assert (message_id in mine._delivered_ids) == (
                message_id in theirs._delivered_ids
            )


def _tracked_after(ring, messages):
    for index in range(messages):
        ring.broadcast(index % N)
        if index % 1_000 == 0:  # the harness's own logs, not the automata's
            ring.sent.clear()
            for log in ring.delivered.values():
                log.clear()
    ring.sent.clear()
    for log in ring.delivered.values():
        log.clear()
    gc.collect()
    return len(gc.get_objects())


def test_tracked_objects_stay_flat_over_100k_messages():
    ring = NullRing(n=N, t=1)
    warm = _tracked_after(ring, 10_000)
    after = _tracked_after(ring, 90_000)
    # Per delivered id, the set grew by one tracked MessageId per process.
    assert after - warm < 1_000, (warm, after)
    for process in ring.processes:
        record = process._delivered_ids
        assert not record.above
        assert sum(record.floor.values()) == 100_000
        assert process.retained_count <= 2 * N


def test_multiring_inner_rings_share_one_record():
    cluster = small_cluster(
        n=4,
        protocol="multiring",
        protocol_config=MultiRingConfig(shards=2, fsr=FSRConfig(t=1)),
        seed=3,
    )
    check_all(run_broadcasts(cluster, [(pid, 4, 8_000) for pid in range(4)]))
    drawn = {
        pid: node.protocol._local_counter for pid, node in cluster.nodes.items()
    }
    for node in cluster.nodes.values():
        first, *others = node.protocol.inner
        assert all(inner._delivered_ids is first._delivered_ids for inner in others)
        # Each origin's ids went to both rings (noops included), and the
        # floor still covers every one of them.
        record = first._delivered_ids
        assert record.floor == drawn and not record.above
