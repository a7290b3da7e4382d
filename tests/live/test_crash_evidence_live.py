"""The two edges of the crash-evidence rule (DESIGN.md §5c), on real
3-node clusters: a process that leaves in order is not a crash, and a
process that fails silently is still found — by the heartbeat timeout.

The kill in between (SIGKILL found in milliseconds from the refused
port) is ``tests/serve/test_live_serve.py``'s leader-kill tests.
"""

import asyncio
import os
import signal
import time

import pytest

from repro.live.runner import LiveCluster, LiveClusterSpec
from repro.obs.journal import JsonlReader
from repro.serve.loadgen import run_load
from repro.serve.runner import ServeSpec, _await_drain, verify_serve_run

pytestmark = pytest.mark.live_smoke

_START_TIMEOUT_S = 30.0


def test_staggered_graceful_stop_suspects_nobody():
    """SIGTERM one node, the others 0.2 s later: the early leaver's
    port refuses every dial long before anybody's heartbeat timeout,
    and its goodbye is why that is not a crash."""
    spec = LiveClusterSpec(
        processes=3, senders=1, message_bytes=5_000, duration_s=1.0,
        window=1, max_run_s=20.0, sim_compare=False,
        view_changes=True,
    )
    with LiveCluster.launch(spec, journals=True) as cluster:
        cluster.await_started(_START_TIMEOUT_S)
        time.sleep(0.5)  # every control connection is up and beating
        cluster.procs[1].terminate()
        time.sleep(0.2)
        records = cluster.stop()

    assert set(records) == {0, 1, 2}
    for pid, record in records.items():
        counters = record["telemetry"]["counters"]
        assert counters.get("fd_suspicions", 0) == 0, f"node {pid} suspected"
        assert record["final_view"]["view_id"] == 0, f"node {pid} left view 0"


def test_silent_failure_is_found_by_the_heartbeat_timeout():
    """SIGSTOP the leader under light load: no hang-up, no refusal, so
    nothing but the timeout can find it — the completeness half of the
    detector, and the one path that still waits the full second."""
    serve = ServeSpec(
        processes=3, heartbeat_timeout_s=1.0, sessions=6, duration_s=3.0,
        retry_timeout_s=1.0,
    )
    interval, timeout = serve.heartbeat_interval_s, serve.heartbeat_timeout_s
    stopped = {}
    with LiveCluster.launch(serve.live_spec(), journals=True) as cluster:
        cluster.await_started(_START_TIMEOUT_S)
        addresses = [cluster.serve_addresses[pid] for pid in cluster.members]
        victim = cluster.members[0]

        def freeze():
            os.kill(cluster.procs[victim].pid, signal.SIGSTOP)
            stopped["at"] = time.monotonic()

        async def drive():
            asyncio.get_running_loop().call_later(0.8, freeze)
            return await run_load(addresses, serve, 60.0)

        stats = asyncio.run(drive())
        assert cluster.kill(victim), "a stopped process is still a process"
        _await_drain(cluster, stats.acked_writes, 5.0)
        records = cluster.stop()
        journals = {
            pid: JsonlReader(path).poll()
            for pid, path in cluster.journal_paths.items()
        }

    survivors = [pid for pid in cluster.members if pid != victim]
    suspected = [
        (e["time"], e["peer"]) for pid in survivors for e in journals[pid]
        if e.get("type") == "suspect"
    ]
    assert {peer for _, peer in suspected} == {victim}
    detect = min(t for t, _ in suspected) - stopped["at"]
    # Silence is counted from the last heartbeat heard (up to one
    # interval before the stop) and checked once per interval.
    assert timeout - interval <= detect <= timeout + 2 * interval, detect
    # Whoever ticks first starts the flush; the other survivor installs
    # view 1 (and stops monitoring the victim) within milliseconds,
    # usually before its own tick — so one suspicion each at most.
    own = []
    for pid in survivors:
        counters = records[pid]["telemetry"]["counters"]
        own.append(counters.get("fd_suspicions", 0))
        assert "fd_suspicions_refused" not in counters  # cause: timeout
        assert records[pid]["final_view"] == {
            "view_id": 1, "members": survivors,
        }
    assert 1 <= sum(own) == len(suspected) and max(own) == 1, own
    violations = verify_serve_run(
        stats,
        {
            pid: [e for e in events if e.get("type") == "apply"]
            for pid, events in journals.items()
        },
        survivors, victim,
        {pid: records[pid]["serve"]["snapshot_hash"] for pid in survivors},
    )
    assert violations == [], violations
    assert any(t > stopped["at"] + detect for t in stats.ack_times), (
        "service never resumed after the view change"
    )
