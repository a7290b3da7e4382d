"""The cluster session (``LiveCluster``): launch → start barrier →
inject → stop → records, on a real 3-node loopback cluster.

Every live driver (``repro live``, ``repro serve``, ``repro chaos
--live``, the serve tests, ``bench/``) goes through this one lifecycle,
so its failure paths are pinned here once: a node that dies before its
barrier is reported with its own stderr, a SIGKILLed node answers from
its crash journal, and no path leaves a child process behind.
"""

import os
import socket
import time

import pytest

import repro.live.runner as runner
from repro.errors import NetworkError
from repro.live.runner import LiveCluster, LiveClusterSpec

pytestmark = pytest.mark.live_smoke


def _spec(**overrides):
    base = dict(
        processes=3,
        senders=1,
        t=1,
        message_bytes=5_000,
        duration_s=1.0,
        window=1,
        settle_s=0.1,
        quiet_s=0.2,
        max_run_s=20.0,
        connect_timeout_s=8.0,
        sim_compare=False,
    )
    base.update(overrides)
    return LiveClusterSpec(**base)


def _all_reaped(cluster):
    return all(proc.poll() is not None for proc in cluster.procs.values())


def test_await_started_reports_a_node_that_dies_before_its_barrier(monkeypatch):
    # Hold one of the allocated ports so node 0's bind fails instantly.
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    real_free_ports = runner._free_ports

    def sabotaged(host, count):
        ports = real_free_ports(host, count)
        ports[0] = blocker.getsockname()[1]
        return ports

    monkeypatch.setattr(runner, "_free_ports", sabotaged)
    started = time.monotonic()
    try:
        with LiveCluster.launch(_spec(), journals=True) as cluster:
            # The node's own stderr tail, not just "node 0 went away".
            with pytest.raises(NetworkError, match=r"node 0 exited 1: .*Errno"):
                cluster.await_started(30.0)
    finally:
        blocker.close()
    # Fail-fast (not the 30 s barrier timeout), and nobody left behind.
    assert time.monotonic() - started < 8.0
    assert _all_reaped(cluster)


def test_stop_answers_for_a_killed_node_from_its_journal():
    # Live membership: nodes run until the launcher stops them.
    spec = _spec(view_changes=True, spans=True)
    with LiveCluster.launch(spec, journals=True) as cluster:
        # What bench/ reads off a cluster.
        assert cluster.members == [0, 1, 2] and set(cluster.procs) == {0, 1, 2}
        assert set(cluster.journal_paths) == set(cluster.span_paths) == {0, 1, 2}
        assert cluster.serve_addresses == {}

        starts = cluster.await_started(30.0)
        assert set(starts) == {0, 1, 2}
        time.sleep(0.3)  # let some traffic reach the journals
        before = time.monotonic()
        assert cluster.kill(2) is True
        stamp = cluster.killed[2]
        assert before <= stamp <= time.monotonic()
        # Killing the dead changes nothing.
        assert cluster.kill(2) is False and cluster.killed == {2: stamp}

        records = cluster.stop()
        timeline = cluster.timeline(records)

    assert set(records) == {0, 1, 2}
    partial = records[2]
    assert partial["schema"] == "repro.live_node_journal/1"
    assert partial["start_time"] == starts[2]
    assert partial["end_time"] == stamp
    assert partial["deliveries"], "the victim journalled no delivery"
    for pid in (0, 1):
        assert records[pid]["schema"] == "repro.live_node/1"
        # A delivery is shaped once: record entries == journal entries.
        assert set(records[pid]["deliveries"][0]) == set(partial["deliveries"][0])
    # Spans merge on the records' origin (the earliest start), and the
    # victim's span journal testifies like its event journal does.
    assert runner.run_origin(records) == min(starts.values())
    assert {event.node for event in timeline.events} == {0, 1, 2}
    assert min(event.time for event in timeline.events) >= 0.0
    assert _all_reaped(cluster)


def test_launch_reaps_on_an_exception_inside_the_with():
    with pytest.raises(RuntimeError, match="driver bug"):
        with LiveCluster.launch(_spec()) as cluster:
            workdir = os.path.dirname(cluster.out_paths[0])
            assert os.path.isdir(workdir)
            assert not _all_reaped(cluster)
            raise RuntimeError("driver bug")
    assert _all_reaped(cluster)
    assert not os.path.exists(workdir)
