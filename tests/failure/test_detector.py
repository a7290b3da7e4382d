"""Unit tests for the perfect failure detectors."""

import pytest

from repro.failure import (
    AdaptiveFailureDetector,
    HeartbeatFailureDetector,
    OracleFailureDetector,
)
from repro.net import ChannelStack, Network, NetworkParams
from repro.net.dispatch import LayerDemux
from repro.obs.telemetry import Telemetry
from repro.sim import Simulator
from repro.sim.trace import TraceLog


def test_oracle_reports_after_detection_delay():
    sim = Simulator()
    detector = OracleFailureDetector(sim, owner=0, detection_delay_s=0.05)
    detector.monitor([1, 2])
    suspected_at = []
    detector.on_suspect(lambda pid: suspected_at.append((pid, sim.now)))
    sim.schedule(1.0, detector.notify_crash, 1)
    sim.run()
    assert suspected_at == [(1, pytest.approx(1.05))]
    assert detector.suspected() == {1}


def test_oracle_crash_before_monitoring_still_reported():
    """Strong completeness: crashes predating monitor() are reported."""
    sim = Simulator()
    detector = OracleFailureDetector(sim, owner=0, detection_delay_s=0.01)
    detector.notify_crash(2)
    detector.monitor([1, 2])
    sim.run()
    assert detector.is_suspected(2)


def test_oracle_never_suspects_live_process():
    """Strong accuracy: no crash notification, no suspicion."""
    sim = Simulator()
    detector = OracleFailureDetector(sim, owner=0)
    detector.monitor([1, 2, 3])
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert detector.suspected() == set()


def test_oracle_ignores_own_crash_and_unmonitored():
    sim = Simulator()
    detector = OracleFailureDetector(sim, owner=0, detection_delay_s=0.01)
    detector.monitor([1])
    detector.notify_crash(0)   # own crash: not self-suspected
    detector.notify_crash(5)   # not monitored: remembered, not reported
    sim.run()
    assert detector.suspected() == set()


def _heartbeat_rig(n=3, cls=HeartbeatFailureDetector, **kwargs):
    params = NetworkParams(cpu_per_message_s=0.0, cpu_per_byte_s=0.0)
    sim = Simulator()
    net = Network(sim, params)
    detectors = {}
    for node in range(n):
        stack = ChannelStack(sim, net.attach(node), params)
        port = LayerDemux(stack).port("fd")
        detectors[node] = cls(
            sim, port, interval_s=5e-3, timeout_s=30e-3, **kwargs
        )
        detectors[node].monitor(range(n))
    return sim, net, detectors


def test_heartbeat_no_false_suspicions_on_quiet_network():
    sim, net, detectors = _heartbeat_rig()
    sim.run(until=0.5)
    for detector in detectors.values():
        assert detector.suspected() == set()


def test_heartbeat_detects_crash_within_timeout():
    sim, net, detectors = _heartbeat_rig()
    sim.run(until=0.1)
    net.crash(2)
    detectors[2].stop()
    sim.run(until=0.2)
    assert detectors[0].is_suspected(2)
    assert detectors[1].is_suspected(2)
    assert not detectors[0].is_suspected(1)


def test_heartbeat_callback_fires_once_per_peer():
    sim, net, detectors = _heartbeat_rig()
    events = []
    detectors[0].on_suspect(events.append)
    sim.run(until=0.05)
    net.crash(1)
    detectors[1].stop()
    net.crash(2)
    detectors[2].stop()
    sim.run(until=0.3)
    assert sorted(events) == [1, 2]


# -- crash evidence from the transport (DESIGN.md §5c) -----------------------
_DETECTORS = pytest.mark.parametrize(
    "cls", [HeartbeatFailureDetector, AdaptiveFailureDetector]
)


@_DETECTORS
def test_refusal_suspects_at_once_through_the_timeout_path(cls):
    telemetry, trace = Telemetry(), TraceLog(enabled=True)
    sim, net, detectors = _heartbeat_rig(
        cls=cls, telemetry=telemetry, trace=trace
    )
    detector = detectors[0]
    events = []
    detector.on_suspect(lambda pid: events.append((pid, sim.now)))
    sim.run(until=0.05)
    detector.on_peer_refused(2)
    assert events == [(2, pytest.approx(0.05))]  # no tick waited for
    assert detector.suspected() == {2}
    # The same evidence again (another dial refused) is not news.
    detector.on_peer_refused(2)
    assert events == [(2, pytest.approx(0.05))]
    # All three detectors share the telemetry: only 0 -> 2 counted.
    counters = telemetry.snapshot()["counters"]
    assert counters["fd_suspicions"] == counters["fd_suspicions_refused"] == 1
    (record,) = trace.records("fd", "suspect")
    assert record.detail["cause"] == "refused"
    assert (record.detail["owner"], record.detail["peer"]) == (0, 2)


def test_timeout_suspicion_names_its_cause_and_counts_no_refusal():
    telemetry, trace = Telemetry(), TraceLog(enabled=True)
    sim, net, detectors = _heartbeat_rig(telemetry=telemetry, trace=trace)
    sim.run(until=0.05)
    net.crash(2)
    detectors[2].stop()
    sim.run(until=0.2)
    records = trace.records("fd", "suspect")
    assert {r.detail["cause"] for r in records} == {"timeout"}
    assert all(r.detail["timeout_s"] == 30e-3 for r in records)
    counters = telemetry.snapshot()["counters"]
    assert counters["fd_suspicions"] == len(records) == 2
    assert "fd_suspicions_refused" not in counters
    # Evidence arriving after the timeout found the peer adds nothing.
    detectors[0].on_peer_refused(2)
    assert telemetry.snapshot()["counters"]["fd_suspicions"] == 2


def test_refusal_ignored_for_unmonitored_peer_and_after_stop():
    telemetry = Telemetry()
    sim, net, detectors = _heartbeat_rig(telemetry=telemetry)
    detector = detectors[0]
    events = []
    detector.on_suspect(events.append)
    sim.run(until=0.05)
    detector.on_peer_refused(7)   # never monitored
    detector.on_peer_refused(0)   # itself
    detector.monitor([0, 1])      # a view without 2
    detector.on_peer_refused(2)
    detector.stop()               # the node is shutting down
    detector.on_peer_refused(1)
    assert events == [] and detector.suspected() == set()
    assert "fd_suspicions" not in telemetry.snapshot()["counters"]
