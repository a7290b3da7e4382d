"""Property-based tests on core data structures and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fsr.fairness import FairSendScheduler
from repro.core.fsr.holdback import HoldbackEntry, HoldbackQueue
from repro.core.fsr.messages import FwdData
from repro.core.fsr.ring import Ring
from repro.core.fsr.segmentation import Reassembler, split_payload
from repro.metrics import jain_index, mean, percentile
from repro.types import MessageId


# ---------------------------------------------------------------------------
# Hold-back queue: any arrival permutation yields in-order delivery.
# ---------------------------------------------------------------------------
@given(st.permutations(list(range(1, 12))))
@settings(max_examples=50, deadline=None)
def test_holdback_delivers_in_order_whatever_the_arrival_order(order):
    released = []
    queue = HoldbackQueue(on_deliver=lambda e: released.append(e.sequence))
    for seq in order:
        queue.mark_deliverable(
            HoldbackEntry(
                sequence=seq,
                message_id=MessageId(origin=0, local_seq=seq),
                payload=None,
                payload_size=0,
            )
        )
    assert released == sorted(order)


# ---------------------------------------------------------------------------
# Segmentation: split/reassemble round-trips any bytes payload.
# ---------------------------------------------------------------------------
@given(
    payload=st.binary(min_size=0, max_size=5_000),
    segment_size=st.integers(min_value=1, max_value=2_000),
)
@settings(max_examples=80, deadline=None)
def test_segmentation_round_trip(payload, segment_size):
    mid = MessageId(origin=1, local_seq=1)
    segments = split_payload(mid, payload, len(payload), segment_size)
    assert sum(s.size_bytes for s in segments) == len(payload)
    assert all(s.size_bytes <= segment_size for s in segments) or len(payload) == 0
    reassembler = Reassembler()
    outputs = [reassembler.on_segment(s) for s in segments]
    completed = [o for o in outputs if o is not None]
    assert len(completed) == 1
    rebuilt, size = completed[0]
    assert rebuilt == payload
    assert size == len(payload)


# ---------------------------------------------------------------------------
# Fairness scheduler: conservation — everything enqueued is eventually
# popped exactly once, whatever the interleaving.
# ---------------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.sampled_from(["fwd", "own"]), st.integers(0, 4)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_fairness_scheduler_conserves_messages(events):
    scheduler = FairSendScheduler()
    enqueued = []
    counter = 0
    for kind, origin in events:
        counter += 1
        message = FwdData(
            message_id=MessageId(origin=origin, local_seq=counter),
            origin=origin if kind == "fwd" else 9,
            payload=None,
            payload_size=10,
            view_id=0,
        )
        enqueued.append(message.message_id)
        if kind == "fwd":
            scheduler.enqueue_forward(message)
        else:
            scheduler.enqueue_own(message)
    popped = []
    while True:
        message = scheduler.pop_next()
        if message is None:
            break
        popped.append(message.message_id)
    assert sorted(popped, key=str) == sorted(enqueued, key=str)


# ---------------------------------------------------------------------------
# Ring arithmetic.
# ---------------------------------------------------------------------------
@given(
    n=st.integers(min_value=1, max_value=12),
    t=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=60, deadline=None)
def test_ring_successor_predecessor_inverse(n, t):
    if t >= n:
        t = n - 1
    ring = Ring(members=tuple(range(100, 100 + n)), t=t)
    for pid in ring.members:
        assert ring.predecessor(ring.successor(pid)) == pid
        assert ring.successor(ring.predecessor(pid)) == pid


@given(
    n=st.integers(min_value=2, max_value=12),
    t=st.integers(min_value=0, max_value=11),
)
@settings(max_examples=60, deadline=None)
def test_ring_latency_formula_bounds(n, t):
    if t >= n:
        t = n - 1
    ring = Ring(members=tuple(range(n)), t=t)
    for position in range(n):
        latency = ring.latency_rounds(position)
        # At least one full circulation; at most two plus the backups.
        assert n - 1 <= latency <= 2 * n + t


# ---------------------------------------------------------------------------
# Statistics invariants.
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_percentile_within_bounds(values):
    assert min(values) <= percentile(values, 50) <= max(values)
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_jain_index_bounds(values):
    index = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
@settings(max_examples=80, deadline=None)
def test_mean_within_bounds(values):
    assert min(values) - 1e-6 <= mean(values) <= max(values) + 1e-6
