"""SpanLog semantics: off-by-default, full lifecycles when on.

The emission discipline is ``EventLog``'s (``test_event_model.py``
checks it once for every log): every call site guards with
``if spans.enabled:`` so a disabled log costs one attribute check
and zero allocations.  When enabled, a simulated cluster run must
produce one complete lifecycle per broadcast message.
"""

from collections import Counter

from repro import ClusterConfig, FSRConfig, build_cluster
from repro.obs.span import KIND_RANK, SpanLog
from repro.types import MessageId
from repro.workloads import KToNPattern, run_workload


class _CountingSink:
    def __init__(self):
        self.calls = 0

    def __call__(self, event):
        self.calls += 1


def test_disabled_spanlog_records_nothing_and_never_calls_sinks():
    spans = SpanLog()  # disabled is the default
    sink = _CountingSink()
    spans.add_sink(sink)
    for i in range(100):
        spans.emit(float(i), 0, "broadcast", 0, i)
    assert not spans.enabled
    assert len(spans) == 0
    assert spans.records() == []
    assert sink.calls == 0


def test_capacity_zero_keeps_memory_flat_but_feeds_sinks():
    # Live nodes run this shape: journal sink on, in-memory list off.
    # A streamed event reached its destination, so nothing is "dropped".
    spans = SpanLog(enabled=True, capacity=0)
    sink = _CountingSink()
    spans.add_sink(sink)
    for i in range(10):
        spans.emit(float(i), 0, "broadcast", 0, i)
    assert len(spans) == 0
    assert spans.dropped == 0
    assert sink.calls == 10


def _run_sim(n=4, t=1, senders=2, messages=5):
    cluster = build_cluster(ClusterConfig(
        n=n, protocol="fsr", protocol_config=FSRConfig(t=t), spans=True,
    ))
    pattern = KToNPattern(
        senders=tuple(range(senders)),
        messages_per_sender=messages,
        message_bytes=8_000,
    )
    return run_workload(cluster, pattern).result


def test_sim_cluster_without_spans_flag_stays_silent():
    cluster = build_cluster(ClusterConfig(
        n=3, protocol="fsr", protocol_config=FSRConfig(t=1),
    ))
    pattern = KToNPattern(senders=(0,), messages_per_sender=3,
                          message_bytes=8_000)
    result = run_workload(cluster, pattern).result
    assert len(result.spans) == 0


def test_sim_run_produces_one_full_lifecycle_per_message():
    n, t, senders, messages = 4, 1, 2, 5
    result = _run_sim(n=n, t=t, senders=senders, messages=messages)
    spans = result.spans
    expected = {
        MessageId(origin, seq)
        for origin in range(senders)
        for seq in range(1, messages + 1)
    }
    assert set(spans.messages()) == expected

    for message in sorted(expected):
        events = spans.lifecycle(message)
        kinds = Counter(e.kind for e in events)
        assert events[0].kind == "broadcast", message
        assert events[0].node == message.origin
        assert kinds["broadcast"] == 1
        assert kinds["sequenced"] == 1, message
        assert kinds["stable"] == 1, message
        # Every correct process app-delivers every message.
        assert kinds["delivered"] == n, message
        # A non-leader origin p forwards through the n - p - 1 nodes
        # between it and the leader; the leader's own messages skip the
        # forward phase entirely.
        origin = message.origin
        expected_hops = 0 if origin == 0 else n - origin - 1
        assert kinds["fwd_hop"] == expected_hops, message
        # ``stored`` fires at backups the SeqData actually transits:
        # it circulates leader -> ... -> origin's predecessor, so only
        # backup positions strictly before the origin see it (all t of
        # them for the leader's own messages).  Backups it skips learn
        # payloads from the forward phase and stability from acks.
        expected_stored = t if origin == 0 else min(origin - 1, t)
        assert kinds["stored"] == expected_stored, message
        # Causal order: ranks never regress for same-time ties, and the
        # lifecycle starts at broadcast and ends delivered.
        assert events[-1].kind == "delivered"
        times = [e.time for e in events]
        assert times == sorted(times)

    # Sequence numbers are unique and dense across messages.
    sequences = sorted(
        e.sequence for e in spans.records(kind="sequenced")
    )
    assert sequences == list(range(1, senders * messages + 1))


def test_kind_rank_matches_declared_lifecycle_order():
    assert KIND_RANK["broadcast"] < KIND_RANK["fwd_hop"]
    assert KIND_RANK["fwd_hop"] < KIND_RANK["sequenced"]
    assert KIND_RANK["sequenced"] < KIND_RANK["stored"]
    assert KIND_RANK["stored"] < KIND_RANK["stable"]
    assert KIND_RANK["stable"] < KIND_RANK["delivered"]
