"""Span journal persistence: crash-surviving files and the merger.

Mirrors the chaos journal's loader contract
(``tests/live/test_journal_loading.py``): a SIGKILLed node's span file
must load up to the last intact line, and files that never got their
``span_meta`` header read as "node never started emitting", not as an
empty timeline.
"""

import json

from repro.obs.journal import (
    SpanJournal,
    Timeline,
    load_span_journal,
    merge_span_journals,
    timeline_from_spanlog,
)
from repro.obs.span import SpanEvent, SpanLog
from repro.types import MessageId


def _event(time, node, kind, origin=0, local_seq=1, **kw):
    return SpanEvent(
        time=time, node=node, kind=kind, origin=origin, local_seq=local_seq,
        **kw,
    )


def test_journal_round_trips_spans_and_telemetry(tmp_path):
    path = str(tmp_path / "node1.spans.jsonl")
    journal = SpanJournal(path, node=1, start_time=10.0)
    journal.write_event(_event(10.1, 1, "broadcast"))
    journal.write_event(_event(10.2, 1, "sequenced", sequence=1))
    journal.write_telemetry(11.0, {"counters": {"transport_bytes_sent": 7}})
    journal.close()

    loaded = load_span_journal(path)
    assert loaded is not None
    assert loaded["node"] == 1
    assert loaded["start_time"] == 10.0
    assert [e.kind for e in loaded["events"]] == ["broadcast", "sequenced"]
    assert loaded["events"][1].sequence == 1
    assert loaded["telemetry"][-1]["snapshot"]["counters"] == {
        "transport_bytes_sent": 7
    }


def test_journal_tolerates_torn_tail_from_sigkill(tmp_path):
    path = str(tmp_path / "node2.spans.jsonl")
    journal = SpanJournal(path, node=2, start_time=5.0)
    journal.write_event(_event(5.1, 2, "broadcast"))
    journal.write_event(_event(5.2, 2, "delivered", sequence=1))
    journal.close()
    # Simulate a SIGKILL mid-write: a final line cut short, no newline.
    with open(path, "a") as fh:
        fh.write('{"type": "span", "time": 5.3, "no')

    loaded = load_span_journal(path)
    assert loaded is not None
    assert [e.kind for e in loaded["events"]] == ["broadcast", "delivered"]


def test_journal_without_meta_header_is_rejected(tmp_path):
    path = str(tmp_path / "node3.spans.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(_event(1.0, 3, "broadcast").to_dict()) + "\n")
    assert load_span_journal(path) is None


def test_missing_journal_is_rejected(tmp_path):
    assert load_span_journal(str(tmp_path / "absent.jsonl")) is None


def test_merger_rebases_onto_common_origin_and_sorts(tmp_path):
    # Two nodes whose clocks share an axis but started apart.
    paths = {}
    for node, start, offset in ((0, 100.0, 0.0), (1, 100.5, 0.0)):
        path = str(tmp_path / f"node{node}.spans.jsonl")
        journal = SpanJournal(path, node=node, start_time=start)
        kind = "broadcast" if node == 0 else "delivered"
        journal.write_event(_event(100.0 + node * 0.25, node, kind))
        journal.write_telemetry(
            101.0, {"counters": {"transport_bytes_sent": node}}
        )
        journal.close()
        paths[node] = path
    # A journal that never started contributes nothing but kills nobody.
    paths[2] = str(tmp_path / "never-started.jsonl")

    timeline = merge_span_journals(paths, t0=100.0)
    assert [e.node for e in timeline.events] == [0, 1]
    assert timeline.events[0].time == 0.0
    assert timeline.events[1].time == 0.25
    assert set(timeline.telemetry) == {0, 1}
    assert timeline.duration_s == 0.25


def test_timeline_file_round_trip(tmp_path):
    spans = SpanLog(enabled=True)
    spans.emit(0.0, 0, "broadcast", 0, 1)
    spans.emit(0.1, 0, "sequenced", 0, 1, sequence=1)
    spans.emit(0.2, 1, "delivered", 0, 1, sequence=1)
    timeline = timeline_from_spanlog(
        spans, telemetry={0: {"counters": {"transport_bytes_sent": 3}}}
    )
    path = str(tmp_path / "timeline.jsonl")
    timeline.write_jsonl(path)

    loaded = Timeline.load_jsonl(path)
    assert [e.kind for e in loaded.events] == [
        "broadcast", "sequenced", "delivered"
    ]
    assert loaded.telemetry[0]["counters"]["transport_bytes_sent"] == 3
    assert loaded.duration_s == timeline.duration_s
    assert loaded.messages() == [MessageId(0, 1)]
    assert [e.kind for e in loaded.lifecycle(MessageId(0, 1))] == [
        "broadcast", "sequenced", "delivered"
    ]


def test_journal_streams_request_events_via_request_sink(tmp_path):
    from repro.obs.reqtrace import CLIENT_NODE, RequestLog

    path = str(tmp_path / "node4.spans.jsonl")
    journal = SpanJournal(path, node=4, start_time=0.0)
    reqlog = RequestLog(enabled=True, capacity=0)  # live-node shape
    reqlog.add_sink(journal.write_event)
    reqlog.emit(1.0, CLIENT_NODE, "send", "c1", 1)
    reqlog.emit(1.1, 4, "proposed", "c1", 1, origin=4, local_seq=9)
    journal.close()

    loaded = load_span_journal(path)
    assert [r.kind for r in loaded["requests"]] == ["send", "proposed"]
    assert loaded["requests"][1].message_id == MessageId(4, 9)
    assert reqlog.dropped == 0  # streamed, not dropped


def test_timeline_round_trip_multiring_requests_dropped_and_torn_tail(tmp_path):
    from repro.obs.reqtrace import CLIENT_NODE, RequestEvent

    # Multiring span events (ring-tagged) plus serve-layer request
    # events and a non-zero drop count — everything the serve stack
    # writes — must survive write_jsonl/load_jsonl, including a torn
    # final line from a launcher killed mid-write.
    timeline = Timeline(
        events=[
            _event(0.0, 0, "broadcast", ring=0),
            _event(0.1, 0, "sequenced", sequence=1, ring=0),
            _event(0.05, 1, "broadcast", origin=1, local_seq=2, ring=1),
            _event(0.3, 1, "delivered", sequence=1, ring=0),
        ],
        telemetry={0: {"counters": {"x": 1}}},
        duration_s=0.3,
        requests=[
            RequestEvent(0.01, CLIENT_NODE, "send", "c1", 1),
            RequestEvent(0.02, 0, "proposed", "c1", 1, origin=0, local_seq=1),
            RequestEvent(0.29, CLIENT_NODE, "acked", "c1", 1),
        ],
        dropped=7,
    )
    path = str(tmp_path / "timeline.jsonl")
    timeline.write_jsonl(path)
    with open(path, "a") as fh:
        fh.write('{"type": "req", "time": 0.4, "nod')  # torn tail

    loaded = Timeline.load_jsonl(path)
    assert loaded.rings() == [0, 1]
    assert [e.ring for e in loaded.for_ring(1).events] == [1]
    assert loaded.dropped == 7
    assert [r.kind for r in loaded.requests] == ["send", "proposed", "acked"]
    assert loaded.requests[1].message_id == MessageId(0, 1)
    assert loaded.request_keys() == [("c1", 1)]
    assert loaded.duration_s == timeline.duration_s


def test_merger_rebases_request_events_with_the_spans(tmp_path):
    from repro.obs.journal import rebase_request
    from repro.obs.reqtrace import CLIENT_NODE, RequestEvent

    path = str(tmp_path / "node0.spans.jsonl")
    journal = SpanJournal(path, node=0, start_time=50.0)
    journal.write_event(_event(50.2, 0, "broadcast"))
    journal.write_event(RequestEvent(50.1, 0, "recv", "c1", 1))
    journal.close()

    timeline = merge_span_journals({0: path}, t0=50.0)
    assert abs(timeline.requests[0].time - 0.1) < 1e-9
    # Client-side events collected in the launcher rebase with the same
    # t0 (CLOCK_MONOTONIC is system-wide), via the public helper.
    client_event = rebase_request(
        RequestEvent(50.05, CLIENT_NODE, "send", "c1", 1), 50.0
    )
    assert abs(client_event.time - 0.05) < 1e-9


def test_spans_dropped_surfaces_in_prometheus_snapshot():
    from repro.obs.analyze import prometheus_snapshot

    spans = SpanLog(enabled=True, capacity=1)
    for i in range(4):
        spans.emit(float(i), 0, "broadcast", 0, i + 1)
    timeline = timeline_from_spanlog(spans)
    assert timeline.dropped == 3
    text = prometheus_snapshot(timeline)
    assert "repro_spans_dropped 3" in text
