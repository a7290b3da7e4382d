"""Request-trace semantics: stage decomposition and the 5% cross-check.

The breakdown's defining property is arithmetic, not statistical: the
four stage boundaries are shared event timestamps, so queue +
replication + apply + respond must equal the ordered end-to-end value
*exactly* per request.  Retries fold by ``(client, seq)`` with the
first event of each kind winning — a failed-over request is measured
from its original submission, which is what the client observed.
"""

import pytest

from repro.errors import CheckFailure
from repro.obs.reqtrace import (
    CLIENT_NODE,
    REQUEST_STAGES,
    RequestBreakdown,
    RequestLog,
    crosscheck_request_latency,
    request_breakdown,
    requests_by_key,
)


def _ordered_request(log, client, seq, send, queue, repl, apply, respond):
    """Emit one complete ordered-path lifecycle with known stage widths."""
    t = send
    log.emit(t, CLIENT_NODE, "send", client, seq)
    log.emit(t + queue * 0.3, 0, "recv", client, seq)
    log.emit(t + queue * 0.6, 0, "enqueued", client, seq)
    t += queue
    log.emit(t, 0, "proposed", client, seq, origin=0, local_seq=seq)
    t += repl
    log.emit(t, 0, "ordered", client, seq, origin=0, local_seq=seq)
    t += apply
    log.emit(t, 0, "applied", client, seq)
    log.emit(t + respond * 0.5, 0, "responded", client, seq)
    t += respond
    log.emit(t, CLIENT_NODE, "acked", client, seq)


def test_stages_sum_exactly_to_ordered_end_to_end():
    log = RequestLog(enabled=True)
    widths = [
        (0.001, 0.004, 0.0002, 0.0008),
        (0.002, 0.008, 0.0001, 0.0009),
        (0.0005, 0.002, 0.0003, 0.0002),
    ]
    for i, (q, r, a, p) in enumerate(widths):
        _ordered_request(log, "c1", i + 1, send=float(i), queue=q,
                         repl=r, apply=a, respond=p)
    bd = request_breakdown(log.records())
    assert bd.requests == 3 and bd.total == 3 and bd.skipped == 0
    stage_sum = sum(bd.stages[name].mean_s for name in REQUEST_STAGES)
    assert stage_sum == pytest.approx(bd.end_to_end.mean_s, rel=1e-12)
    expected_mean = sum(sum(w) for w in widths) / len(widths)
    assert bd.end_to_end.mean_s == pytest.approx(expected_mean, rel=1e-9)
    # Shares are fractions of the mean end-to-end and sum to 1.
    assert sum(bd.stages[n].share for n in REQUEST_STAGES) == pytest.approx(1.0)


def test_local_path_requests_count_in_overall_but_not_stages():
    log = RequestLog(enabled=True)
    _ordered_request(log, "c1", 1, send=0.0, queue=0.001, repl=0.004,
                     apply=0.0002, respond=0.0008)
    # A local read: send/recv/local_read/responded/acked, no ordered leg.
    log.emit(10.0, CLIENT_NODE, "send", "c1", 2)
    log.emit(10.0004, 0, "recv", "c1", 2)
    log.emit(10.0005, 0, "local_read", "c1", 2)
    log.emit(10.0006, 0, "responded", "c1", 2)
    log.emit(10.001, CLIENT_NODE, "acked", "c1", 2)
    bd = request_breakdown(log.records())
    assert bd.requests == 1  # only the ordered one decomposes
    assert bd.total == 2     # both completed round trips
    assert bd.markers["local_read"] == 1
    # The overall mean covers both populations: (6ms + 1ms) / 2.
    assert bd.overall.mean_s == pytest.approx((0.006 + 0.001) / 2, rel=1e-9)


def test_retries_fold_to_first_event_per_kind():
    log = RequestLog(enabled=True)
    # Original attempt: send at t=0, proposed at the dead leader.
    log.emit(0.0, CLIENT_NODE, "send", "c1", 1)
    log.emit(0.001, 0, "recv", "c1", 1)
    log.emit(0.002, 0, "proposed", "c1", 1, origin=0, local_seq=7)
    # Failover resend: duplicate send/recv/proposed on the survivor.
    log.emit(0.5, CLIENT_NODE, "failover_resend", "c1", 1)
    log.emit(0.501, CLIENT_NODE, "send", "c1", 1)
    log.emit(0.502, 1, "recv", "c1", 1)
    log.emit(0.503, 1, "proposed", "c1", 1, origin=1, local_seq=3)
    log.emit(0.600, 1, "ordered", "c1", 1, origin=1, local_seq=3)
    log.emit(0.601, 1, "applied", "c1", 1)
    log.emit(0.650, CLIENT_NODE, "acked", "c1", 1)
    bd = request_breakdown(log.records())
    assert bd.requests == 1
    assert bd.markers["failover_resend"] == 1
    # Measured from the ORIGINAL send (t=0), not the resend (t=0.501).
    assert bd.end_to_end.mean_s == pytest.approx(0.650)
    # queue uses the first proposed stamp (t=0.002).
    assert bd.stages["queue"].mean_s == pytest.approx(0.002)


def test_ack_racing_ahead_of_ordered_duplicate_skips_stages():
    # A cached/local answer satisfied the client before a failover
    # duplicate finished riding the total order: the request counts in
    # the overall population but contributes no (negative) stage times.
    log = RequestLog(enabled=True)
    _ordered_request(log, "c1", 1, send=0.0, queue=0.001, repl=0.004,
                     apply=0.0002, respond=0.0008)
    log.emit(1.0, CLIENT_NODE, "send", "c1", 2)
    log.emit(1.001, 0, "proposed", "c1", 2, origin=0, local_seq=9)
    log.emit(1.002, CLIENT_NODE, "acked", "c1", 2)  # cached answer
    log.emit(1.050, 0, "ordered", "c1", 2, origin=0, local_seq=9)
    log.emit(1.051, 0, "applied", "c1", 2)          # after the ack
    bd = request_breakdown(log.records())
    assert bd.requests == 1 and bd.total == 2
    assert all(bd.stages[n].mean_s >= 0 for n in REQUEST_STAGES)


def test_incomplete_lifecycles_are_skipped_and_counted():
    log = RequestLog(enabled=True)
    _ordered_request(log, "c1", 1, send=0.0, queue=0.001, repl=0.004,
                     apply=0.0002, respond=0.0008)
    log.emit(5.0, CLIENT_NODE, "send", "c1", 2)  # in flight at shutdown
    bd = request_breakdown(log.records())
    assert bd.total == 1 and bd.skipped == 1


def test_breakdown_raises_without_any_complete_request():
    log = RequestLog(enabled=True)
    log.emit(0.0, CLIENT_NODE, "send", "c1", 1)
    with pytest.raises(CheckFailure):
        request_breakdown(log.records())


def test_breakdown_raises_without_any_ordered_path_request():
    log = RequestLog(enabled=True)
    log.emit(0.0, CLIENT_NODE, "send", "c1", 1)
    log.emit(0.001, 0, "local_read", "c1", 1)
    log.emit(0.002, CLIENT_NODE, "acked", "c1", 1)
    with pytest.raises(CheckFailure):
        request_breakdown(log.records())


def test_crosscheck_passes_within_and_fails_beyond_five_percent():
    log = RequestLog(enabled=True)
    _ordered_request(log, "c1", 1, send=0.0, queue=0.001, repl=0.004,
                     apply=0.0002, respond=0.0008)
    bd = request_breakdown(log.records())
    mean = bd.overall.mean_s
    crosscheck_request_latency(bd, mean * 1.04)  # inside the gate
    with pytest.raises(CheckFailure):
        crosscheck_request_latency(bd, mean * 1.10)


def test_roundtrip_through_dict_preserves_the_table():
    log = RequestLog(enabled=True)
    _ordered_request(log, "c1", 1, send=0.0, queue=0.001, repl=0.004,
                     apply=0.0002, respond=0.0008)
    bd = request_breakdown(log.records())
    again = RequestBreakdown.from_dict(bd.to_dict())
    assert again.render_table() == bd.render_table()
    assert "queue" in again.render_table()


def test_disabled_log_records_nothing_and_empty_log_is_still_usable():
    log = RequestLog()  # disabled by default
    log.emit(0.0, CLIENT_NODE, "send", "c1", 1)
    assert len(log) == 0 and log.records() == []
    # An empty log is still a log: EventLog.__bool__ is True whatever
    # __len__ says (the falsy-when-empty trap caused ISSUE 10's bug).
    enabled = RequestLog(enabled=True)
    assert enabled and enabled.enabled and len(enabled) == 0


def test_requests_by_key_groups_and_orders_lifecycles():
    log = RequestLog(enabled=True)
    log.emit(0.002, 0, "recv", "c1", 1)
    log.emit(0.001, CLIENT_NODE, "send", "c1", 1)
    log.emit(0.005, CLIENT_NODE, "send", "c2", 1)
    grouped = requests_by_key(log.records())
    assert set(grouped) == {("c1", 1), ("c2", 1)}
    assert [e.kind for e in grouped[("c1", 1)]] == ["send", "recv"]
