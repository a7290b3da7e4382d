"""The one event model: log discipline, derived serde, golden artefacts.

``TraceLog``, ``SpanLog`` and ``RequestLog`` are one ``EventLog`` with
three record types, so their emission discipline is checked once, for
all three.  The journalled records' JSON shape is derived from the
dataclass fields; the golden strings below were generated at the commit
*before* the derivation replaced the hand-written serde, and pin every
artefact that leaves the program (span journals, merged timelines, the
breakdown blocks of ``BENCH_live.json`` / ``BENCH_serve.json`` /
``repro obs --json``, the rendered tables) byte for byte.
"""

import json

import pytest

from repro.obs.analyze import StageBreakdown, stage_breakdown
from repro.obs.journal import SpanJournal, Timeline
from repro.obs.reqtrace import (
    CLIENT_NODE,
    RequestBreakdown,
    RequestEvent,
    RequestLog,
    request_breakdown,
)
from repro.obs.span import SpanEvent, SpanLog
from repro.sim import TraceLog

EMITTERS = {
    TraceLog: lambda log, i: log.emit(float(i), "net", "send", i=i),
    SpanLog: lambda log, i: log.emit(float(i), 0, "broadcast", 0, i),
    RequestLog: lambda log, i: log.emit(float(i), CLIENT_NODE, "send", "c1", i),
}


@pytest.mark.parametrize("log_type", list(EMITTERS), ids=lambda t: t.__name__)
def test_log_discipline(log_type):
    emit = EMITTERS[log_type]

    # Disabled (the default): nothing stored, nothing streamed, and no
    # record is even built — the cost is the `enabled` check alone.
    off = log_type()
    streamed = []
    off.add_sink(streamed.append)

    def no_allocation(*args, **kwargs):
        raise AssertionError("a disabled log built a record")

    off.record_type = no_allocation
    emit(off, 1)
    assert not off.enabled and len(off) == 0 and off.records() == []
    assert streamed == [] and off.dropped == 0

    # A log is a facility, not a container: empty or stream-only it
    # still reads as true, so `log or default` cannot swap it out.
    assert off and log_type(enabled=True) and log_type(enabled=True, capacity=0)

    # Capacity caps memory; with no sink the overflow is dropped and
    # counted, so a truncated trace can never read as a complete one.
    capped = log_type(enabled=True, capacity=2)
    for i in range(5):
        emit(capped, i)
    assert len(capped) == 2 and capped.count() == 2 and capped.dropped == 3
    assert [r.time for r in capped.records()] == [0.0, 1.0]

    # capacity=0 + sink is the live-node shape: every record streams to
    # the journal, none accumulates, and a streamed record reached its
    # destination — it is not a drop, at capacity or not.
    streaming = log_type(enabled=True, capacity=0)
    streaming.add_sink(streamed.append)
    for i in range(5):
        emit(streaming, i)
    assert len(streaming) == 0 and streaming.dropped == 0
    assert [r.time for r in streamed] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert all(isinstance(r, log_type.record_type) for r in streamed)


def test_records_filter_by_any_field_of_the_record_type():
    spans = SpanLog(enabled=True)
    spans.emit(0.0, 0, "broadcast", 0, 1)
    spans.emit(0.1, 1, "delivered", 0, 1, sequence=1)
    spans.emit(0.2, 1, "delivered", 0, 2, sequence=2)
    assert spans.count(kind="delivered", node=1) == 2
    assert [e.time for e in spans.records(origin=0, local_seq=2)] == [0.2]
    assert spans.count(kind="delivered", sequence=None) == 2  # None = no filter
    assert "elided" in spans.dump(limit=1) and "seq=2" in spans.dump(limit=1)

    requests = RequestLog(enabled=True)
    requests.emit(0.0, CLIENT_NODE, "send", "c1", 1)
    requests.emit(0.1, CLIENT_NODE, "send", "c2", 1)
    assert [r.client for r in requests.records(client="c2")] == ["c2"]


# ----------------------------------------------------------------------
# Golden artefacts (strings generated at the parent of the derived serde)
# ----------------------------------------------------------------------

SPAN_JOURNAL = (
    '{"type": "span_meta", "schema": "repro.span_journal/1", "node": 3, "start_time": 12.5}\n'
    '{"type": "span", "time": 12.75, "node": 3, "kind": "broadcast", "origin": 3, "local_seq": 1}\n'
    '{"type": "span", "time": 13.0, "node": 0, "kind": "stored", "origin": 3, "local_seq": 1, "sequence": 7, "hop": 1, "ring": 2}\n'
    '{"type": "req", "time": 13.25, "node": -1, "kind": "send", "client": "c1", "seq": 4}\n'
    '{"type": "req", "time": 13.5, "node": 3, "kind": "proposed", "client": "c1", "seq": 4, "origin": 3, "local_seq": 9}\n'
    '{"type": "telemetry", "time": 14.0, "snapshot": {"counters": {"transport_bytes_sent": 7}, "gauges": {}, "histograms": {}}}\n'
)

TIMELINE = (
    '{"type": "timeline_meta", "schema": "repro.timeline/1", "duration_s": 1.0, "nodes": [0, 1], "dropped": 2}\n'
    '{"type": "telemetry", "node": 1, "snapshot": {"counters": {"x": 1}}}\n'
    '{"type": "span", "time": 0.0, "node": 1, "kind": "broadcast", "origin": 1, "local_seq": 1}\n'
    '{"type": "span", "time": 0.25, "node": 0, "kind": "sequenced", "origin": 1, "local_seq": 1, "sequence": 1}\n'
    '{"type": "span", "time": 0.5, "node": 1, "kind": "stable", "origin": 1, "local_seq": 1, "sequence": 1}\n'
    '{"type": "span", "time": 0.75, "node": 0, "kind": "delivered", "origin": 1, "local_seq": 1, "sequence": 1}\n'
    '{"type": "span", "time": 1.0, "node": 1, "kind": "delivered", "origin": 1, "local_seq": 1, "sequence": 1, "ring": 0}\n'
    '{"type": "req", "time": 0.0, "node": -1, "kind": "send", "client": "c1", "seq": 1}\n'
    '{"type": "req", "time": 0.125, "node": 0, "kind": "proposed", "client": "c1", "seq": 1, "origin": 0, "local_seq": 1}\n'
    '{"type": "req", "time": 0.5, "node": 0, "kind": "ordered", "client": "c1", "seq": 1, "origin": 0, "local_seq": 1}\n'
    '{"type": "req", "time": 0.625, "node": 0, "kind": "applied", "client": "c1", "seq": 1}\n'
    '{"type": "req", "time": 0.75, "node": 0, "kind": "cached", "client": "c1", "seq": 1}\n'
    '{"type": "req", "time": 1.0, "node": -1, "kind": "acked", "client": "c1", "seq": 1}\n'
    '{"type": "req", "time": 2.0, "node": -1, "kind": "send", "client": "c1", "seq": 2}\n'
    '{"type": "req", "time": 2.25, "node": 0, "kind": "local_read", "client": "c1", "seq": 2}\n'
    '{"type": "req", "time": 2.5, "node": -1, "kind": "acked", "client": "c1", "seq": 2}\n'
    '{"type": "req", "time": 3.0, "node": -1, "kind": "send", "client": "c1", "seq": 3}\n'
)

STAGE_BREAKDOWN = (
    '{"messages": 1, "skipped": 0, "stages": {'
    '"hop": {"mean_s": 0.25, "p50_s": 0.25, "p99_s": 0.25, "share": 0.25}, '
    '"sequencing": {"mean_s": 0.25, "p50_s": 0.25, "p99_s": 0.25, "share": 0.25}, '
    '"stability": {"mean_s": 0.5, "p50_s": 0.5, "p99_s": 0.5, "share": 0.5}}, '
    '"end_to_end": {"mean_s": 1.0, "p50_s": 1.0, "p99_s": 1.0, "share": 1.0}}'
)

REQUEST_BREAKDOWN = (
    '{"requests": 1, "skipped": 1, "total": 2, "stages": {'
    '"queue": {"mean_s": 0.125, "p50_s": 0.125, "p99_s": 0.125, "share": 0.125}, '
    '"replication": {"mean_s": 0.375, "p50_s": 0.375, "p99_s": 0.375, "share": 0.375}, '
    '"apply": {"mean_s": 0.125, "p50_s": 0.125, "p99_s": 0.125, "share": 0.125}, '
    '"respond": {"mean_s": 0.375, "p50_s": 0.375, "p99_s": 0.375, "share": 0.375}}, '
    '"end_to_end": {"mean_s": 1.0, "p50_s": 1.0, "p99_s": 1.0, "share": 1.0}, '
    '"overall": {"mean_s": 0.75, "p50_s": 0.75, "p99_s": 0.995, "share": 1.0}, '
    '"markers": {"local_read": 1, "cached": 1, "ordered_fallback": 0, "failover_resend": 0}}'
)

STAGE_TABLE = (
    "stage          mean ms    p50 ms    p99 ms   share\n"
    "--------------------------------------------------\n"
    "hop             250.00    250.00    250.00   25.0%\n"
    "sequencing      250.00    250.00    250.00   25.0%\n"
    "stability       500.00    500.00    500.00   50.0%\n"
    "--------------------------------------------------\n"
    "end-to-end     1000.00   1000.00   1000.00  100.0%\n"
    "(1 messages, 0 incomplete)"
)

REQUEST_TABLE = (
    "stage          mean ms    p50 ms    p99 ms   share\n"
    "--------------------------------------------------\n"
    "queue           125.00    125.00    125.00   12.5%\n"
    "replication     375.00    375.00    375.00   37.5%\n"
    "apply           125.00    125.00    125.00   12.5%\n"
    "respond         375.00    375.00    375.00   37.5%\n"
    "--------------------------------------------------\n"
    "ordered e2e    1000.00   1000.00   1000.00  100.0%\n"
    "all paths       750.00    750.00    995.00        \n"
    "(1 ordered of 2 traced requests, 1 incomplete; local_read=1, "
    "cached=1, ordered_fallback=0, failover_resend=0)"
)


def _timeline():
    return Timeline(
        events=[
            SpanEvent(0.0, 1, "broadcast", 1, 1),
            SpanEvent(0.25, 0, "sequenced", 1, 1, sequence=1),
            SpanEvent(0.5, 1, "stable", 1, 1, sequence=1),
            SpanEvent(0.75, 0, "delivered", 1, 1, sequence=1),
            SpanEvent(1.0, 1, "delivered", 1, 1, sequence=1, ring=0),
        ],
        telemetry={1: {"counters": {"x": 1}}},
        duration_s=1.0,
        requests=[
            RequestEvent(0.0, -1, "send", "c1", 1),
            RequestEvent(0.125, 0, "proposed", "c1", 1, origin=0, local_seq=1),
            RequestEvent(0.5, 0, "ordered", "c1", 1, origin=0, local_seq=1),
            RequestEvent(0.625, 0, "applied", "c1", 1),
            RequestEvent(0.75, 0, "cached", "c1", 1),
            RequestEvent(1.0, -1, "acked", "c1", 1),
            RequestEvent(2.0, -1, "send", "c1", 2),
            RequestEvent(2.25, 0, "local_read", "c1", 2),
            RequestEvent(2.5, -1, "acked", "c1", 2),
            RequestEvent(3.0, -1, "send", "c1", 3),
        ],
        dropped=2,
    )


def test_span_journal_lines_are_byte_identical(tmp_path):
    path = str(tmp_path / "node3.spans.jsonl")
    journal = SpanJournal(path, node=3, start_time=12.5)
    journal.write_event(SpanEvent(12.75, 3, "broadcast", 3, 1))
    journal.write_event(SpanEvent(13.0, 0, "stored", 3, 1, sequence=7, hop=1, ring=2))
    journal.write_event(RequestEvent(13.25, -1, "send", "c1", 4))
    journal.write_event(
        RequestEvent(13.5, 3, "proposed", "c1", 4, origin=3, local_seq=9)
    )
    journal.write_telemetry(
        14.0,
        {"counters": {"transport_bytes_sent": 7}, "gauges": {}, "histograms": {}},
    )
    journal.close()
    with open(path) as fh:
        assert fh.read() == SPAN_JOURNAL


def test_timeline_file_is_byte_identical_and_round_trips(tmp_path):
    timeline = _timeline()
    path = str(tmp_path / "timeline.jsonl")
    timeline.write_jsonl(path)
    with open(path) as fh:
        assert fh.read() == TIMELINE
    assert Timeline.load_jsonl(path) == timeline


def test_breakdown_dicts_and_tables_are_byte_identical():
    timeline = _timeline()
    stages = stage_breakdown(timeline)
    requests = request_breakdown(timeline.requests)
    assert json.dumps(stages.to_dict()) == STAGE_BREAKDOWN
    assert json.dumps(requests.to_dict()) == REQUEST_BREAKDOWN
    assert stages.render_table() == STAGE_TABLE
    assert requests.render_table() == REQUEST_TABLE
    # The CLI re-renders from the JSON a bench record carries.
    assert StageBreakdown.from_dict(json.loads(STAGE_BREAKDOWN)) == stages
    assert RequestBreakdown.from_dict(json.loads(REQUEST_BREAKDOWN)) == requests


# ----------------------------------------------------------------------
# from_dict: files given to ``repro obs`` come from outside the program
# ----------------------------------------------------------------------

@pytest.mark.parametrize("event", [
    SpanEvent(1.5, 2, "stored", 0, 7, sequence=3, hop=1),
    RequestEvent(1.5, 2, "proposed", "c1", 7, origin=2, local_seq=4),
    RequestEvent(1.5, CLIENT_NODE, "send", "c1", 7),
], ids=["span", "req-proposed", "req-client"])
def test_event_serde_round_trips_and_rejects_malformed_entries(event):
    entry = event.to_dict()
    assert type(event).from_dict(json.loads(json.dumps(entry))) == event
    # JSON numbers come back in whatever shape the writer chose.
    loose = {**entry, "time": "1.5", "node": float(event.node)}
    assert type(event).from_dict(loose) == event
    for required in ("time", "node", "kind"):
        with pytest.raises(KeyError):
            type(event).from_dict({k: v for k, v in entry.items() if k != required})
    with pytest.raises(ValueError):
        type(event).from_dict({**entry, "time": "soon"})
    with pytest.raises((TypeError, ValueError)):
        type(event).from_dict({**entry, "node": [1]})


def test_rebased_shifts_time_only():
    event = RequestEvent(50.5, 0, "proposed", "c1", 1, origin=0, local_seq=9)
    assert event.rebased(0.0) is event
    assert event.rebased(50.0) == RequestEvent(
        0.5, 0, "proposed", "c1", 1, origin=0, local_seq=9
    )
    assert SpanEvent(2.0, 1, "stable", 0, 1, ring=3).rebased(0.5) == SpanEvent(
        1.5, 1, "stable", 0, 1, ring=3
    )
