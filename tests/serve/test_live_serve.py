"""Live serve battery: real node processes, real TCP client sessions.

Three layers, all marked ``live_smoke``:

* sim/live conformance — the same scripted session replayed through a
  real serve cluster applies the identical command sequence the
  simulator pins down (``test_sim_conformance.py``);
* a leader-kill chaos regression — SIGKILL the lease holder mid-load
  and gate on the exactly-once invariant battery;
* the ``repro serve`` benchmark pipeline end to end.
"""

import asyncio

import pytest

from repro.serve.client import SessionClient
from repro.serve.loadgen import LoadStats
from repro.serve.runner import (
    ServeSpec,
    _await_drain,
    load_applied_log,
    run_serve_benchmark,
    run_serve_point,
    verify_serve_run,
)
from repro.serve.sim import (
    CONFORMANCE_SCRIPT,
    expected_applied,
    run_scripted_session,
)
from repro.live.runner import LiveCluster

pytestmark = pytest.mark.live_smoke

_START_TIMEOUT_S = 30.0


def serve_cluster(**overrides):
    """A 3-node serve cluster session (``with`` it, then await its start)."""
    spec = ServeSpec(processes=3, **overrides).live_spec()
    return LiveCluster.launch(spec, journals=True)


def _applied(cluster):
    """What each node's journal says it applied, in order."""
    return {
        pid: [(e["client"], e["seq"], e["op"]) for e in load_applied_log(path)]
        for pid, path in cluster.journal_paths.items()
    }


def test_live_conformance_matches_sim():
    sim = run_scripted_session()
    expected = expected_applied(CONFORMANCE_SCRIPT)
    assert sim.applied[0] == expected  # the sim half, pinned again here

    with serve_cluster() as cluster:
        cluster.await_started(_START_TIMEOUT_S)
        address = cluster.serve_addresses[cluster.members[0]]

        async def replay():
            # ordered_reads=True: gets ride the total order too, so
            # they appear in the applied sequence exactly as on the sim.
            clients = {
                name: SessionClient(name, [address], ordered_reads=True)
                for name in ("alice", "bob")
            }
            for client in clients.values():
                await client.connect()
            responses = {}
            try:
                for client_name, seq, _fu, op, args in CONFORMANCE_SCRIPT:
                    client = clients[client_name]
                    if (client_name, seq) in responses:
                        dup = await asyncio.wait_for(
                            client.duplicate(seq, op, *args), 10.0
                        )
                        first = responses[(client_name, seq)]
                        assert dup.served == "cached"
                        assert (dup.ok, dup.result, dup.error) == (
                            first.ok, first.result, first.error
                        )
                    else:
                        response = await asyncio.wait_for(
                            client.request(op, *args), 10.0
                        )
                        responses[(client_name, seq)] = response
            finally:
                for client in clients.values():
                    await client.close()

        asyncio.run(replay())
        records, applied = cluster.stop(), _applied(cluster)

    for node_id, node_applied in applied.items():
        assert node_applied == expected, f"node {node_id} diverged from sim"
    hashes = {r["serve"]["snapshot_hash"] for r in records.values()}
    assert len(hashes) == 1, "replica states diverged"


def test_session_dedup_and_failover_reads_live():
    with serve_cluster() as cluster:
        cluster.await_started(_START_TIMEOUT_S)
        addresses = [cluster.serve_addresses[pid] for pid in cluster.members]

        async def scenario():
            client = SessionClient("solo", addresses, retry_timeout_s=2.0)
            await client.connect()
            try:
                put = await asyncio.wait_for(client.request("put", "k", "v"), 10.0)
                assert put.ok and put.served == "ordered"
                dup = await asyncio.wait_for(
                    client.duplicate(1, "put", "k", "v"), 10.0
                )
                assert dup.served == "cached" and dup.ok
                # Reads are session monotonic whichever node serves.
                read = await asyncio.wait_for(client.request("get", "k"), 10.0)
                assert read.ok and read.result == "v"
            finally:
                await client.close()

        asyncio.run(scenario())
        cluster.stop()
        applied = _applied(cluster)

    # One application of seq 1 everywhere, despite the duplicate.
    for node_applied in applied.values():
        assert node_applied.count(("solo", 1, "put")) == 1


def test_leader_kill_preserves_exactly_once():
    """SIGKILL the lease holder mid-load: no acked write lost or doubly
    applied, and the client-visible outage is detection plus a view
    change plus the reconnects — found from the refused port, not by
    waiting out the heartbeat timeout."""
    spec = ServeSpec(
        processes=3,
        rates=[120.0],
        duration_s=3.0,
        sessions=8,
        heartbeat_timeout_s=1.0,
        retry_timeout_s=1.0,
    )
    point = run_serve_point(spec, 120.0, kill_leader=True)
    assert point.violations == [], point.violations
    assert point.killed is not None
    assert point.stats.acked_writes, "no writes acked — load never ran"
    assert point.stats.timeouts == 0
    # The outage contains the stall the survivors' journals measured
    # (first suspicion, last install of view 1) — less would mean the
    # metric missed it — and ends before the heartbeat timeout could
    # have fired: the evidence path, not the timer, found the kill.
    assert point.outage_s is not None
    legs = (point.detect_s, point.view_change_s)
    assert None not in legs
    assert sum(legs) <= point.outage_s + 0.05, (legs, point.outage_s)
    assert point.outage_s < spec.heartbeat_timeout_s, (legs, point.outage_s)


def test_leader_kill_with_batches_in_flight_preserves_exactly_once():
    """Closed loop, 2 connections x 32 outstanding writes (the
    ``serve_sat`` shape): every broadcast is a multi-command ``@batch``
    when the SIGKILL lands, so a batch lost, half-applied or applied
    twice across the view change shows up in the exactly-once battery."""
    outstanding, load_s, kill_at_s = 32, 3.0, 1.0
    stats = LoadStats()
    with serve_cluster(heartbeat_timeout_s=1.0) as cluster:
        cluster.await_started(_START_TIMEOUT_S)
        addresses = [cluster.serve_addresses[pid] for pid in cluster.members]
        victim = cluster.members[0]

        async def drive():
            loop = asyncio.get_running_loop()
            deadline = loop.time() + load_s
            clients = [
                SessionClient(f"sat{i}", addresses, retry_timeout_s=2.0)
                for i in range(2)
            ]
            for client in clients:
                await client.connect()
            done = asyncio.Event()
            inflight = [0]

            def submit(client, number):
                args = ("put", f"k{number % 50}", f"{client.client_id}-{number}")
                seq = client._next_seq
                inflight[0] += 1

                def finished(fut):
                    inflight[0] -= 1
                    if not fut.cancelled() and fut.exception() is None \
                            and fut.result().ok:
                        stats.acked_writes.append(
                            (client.client_id, seq, args[0], args[1:])
                        )
                        stats.ack_times.append(loop.time())
                    if loop.time() < deadline:
                        submit(client, number + outstanding)
                    elif not inflight[0]:
                        done.set()

                client.submit(*args).add_done_callback(finished)

            loop.call_later(kill_at_s, cluster.kill, victim)
            try:
                for client in clients:
                    for number in range(outstanding):
                        submit(client, number)
                await asyncio.wait_for(done.wait(), load_s + 20.0)
            finally:
                for client in clients:
                    await client.close()

        asyncio.run(drive())
        assert cluster.procs[victim].poll() is not None, "leader never killed"
        _await_drain(cluster, stats.acked_writes, 5.0)
        records = cluster.stop()
        applied_by_node = {
            pid: load_applied_log(path)
            for pid, path in cluster.journal_paths.items()
        }
        with open(cluster.journal_paths[victim]) as fh:
            victim_deliveries = sum('"app_delivery"' in line for line in fh)

    survivors = [pid for pid in cluster.members if pid != victim]
    violations = verify_serve_run(
        stats, applied_by_node, survivors, victim,
        {pid: records[pid]["serve"]["snapshot_hash"] for pid in survivors},
    )
    assert violations == [], violations
    assert len(stats.acked_writes) > 2 * outstanding, "load never ran"
    # Service resumed after the view change ...
    assert max(stats.ack_times) - min(stats.ack_times) > kill_at_s + 1.0
    # ... and multi-command batches really were what the ring carried:
    # the killed leader applied more commands than it delivered
    # broadcasts, and a survivor packed its own after failover.
    assert len(applied_by_node[victim]) > 2 * victim_deliveries
    assert any(
        records[pid]["serve"]["batch_commands"].get("max", 0) >= 2
        for pid in survivors
    )


@pytest.mark.slow
def test_serve_benchmark_writes_bench_record(tmp_path):
    out = tmp_path / "BENCH_serve.json"
    spec = ServeSpec(
        processes=3,
        rates=[60.0],
        duration_s=1.5,
        sessions=5,
        kill_leader=True,
        kill_rate=80.0,
    )
    payload = run_serve_benchmark(spec, out_path=str(out))
    import json

    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["schema"] == "repro.bench_serve/1"
    assert len(on_disk["curve"]) == 1
    assert on_disk["curve"][0]["load"]["completed"] > 0
    assert on_disk["kill_point"] is not None
    assert on_disk["kill_point"]["killed"] is not None
    assert on_disk["invariants_ok"] is True
