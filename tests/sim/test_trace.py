"""Unit tests for the structured trace log."""

from repro.sim import TraceLog


def test_disabled_log_records_nothing():
    trace = TraceLog(enabled=False)
    trace.emit(1.0, "net", "send", bytes=10)
    assert len(trace) == 0


def test_emit_and_filter():
    trace = TraceLog(enabled=True)
    trace.emit(1.0, "net", "send", dst=1)
    trace.emit(2.0, "net", "recv", src=0)
    trace.emit(3.0, "fsr", "send", dst=2)
    assert trace.count() == 3
    assert trace.count(source="net") == 2
    assert trace.count(kind="send") == 2
    assert trace.count(source="net", kind="send") == 1
    last = trace.last(kind="send")
    assert last is not None and last.source == "fsr"


def test_sink_receives_records():
    trace = TraceLog(enabled=True)
    seen = []
    trace.add_sink(seen.append)
    trace.emit(1.0, "a", "b")
    assert len(seen) == 1 and seen[0].kind == "b"


def test_dump_elides_older_records():
    trace = TraceLog(enabled=True)
    for i in range(10):
        trace.emit(float(i), "s", "k", i=i)
    dump = trace.dump(limit=3)
    assert "elided" in dump
    assert "i=9" in dump


def test_record_str_is_readable():
    trace = TraceLog(enabled=True)
    trace.emit(1.5, "net", "send", dst=3, bytes=100)
    text = str(trace.records()[0])
    assert "net" in text and "send" in text and "dst=3" in text
