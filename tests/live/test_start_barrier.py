"""The start barrier (DESIGN.md §5c): a node starts on evidence, not a
sleep, a stop that lands while it waits ends it cleanly, and a node
process imports only the node.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.live.config import LiveClusterSpec, LiveNodeConfig
from repro.live.node import start_barrier
from repro.live.runner import _node_env
from repro.live.transport import RingTransport
from tests.live.test_transport_recovery import _free_port

#: How long the late member waits before it binds its listener.
_LATE_S = 0.3


def test_no_barrier_passes_before_a_late_member_listens():
    """Five transports in one loop, ring 0 -> 1 -> 2 -> 3 -> 4 -> 0;
    node 2 starts 300 ms late.  Nodes 0 and 4 are not its ring
    neighbours, so only the member condition holds them back."""
    n, late = 5, 2

    async def main():
        addrs = {pid: ("127.0.0.1", _free_port()) for pid in range(n)}
        refused = []
        transports = {}
        for pid in range(n):
            succ = (pid + 1) % n
            transports[pid] = RingTransport(
                pid, addrs[pid], succ, addrs[succ], lambda src, msg: None,
                peers=addrs, reconnect_base_s=0.01, reconnect_cap_s=0.02,
                max_retries=None,
            )
            transports[pid].on_peer_refused = refused.append
        stamps = {pid: {} for pid in range(n)}
        passed = {}

        async def member(pid):
            if pid == late:
                await asyncio.sleep(_LATE_S)
            await transports[pid].start()
            stamps[pid]["listening"] = time.monotonic()
            await start_barrier(
                [transports[pid]], 5.0, members=True, stamps=stamps[pid]
            )
            passed[pid] = time.monotonic()

        try:
            await asyncio.gather(*(member(pid) for pid in range(n)))
        finally:
            for transport in transports.values():
                await transport.close()
        return stamps, passed, refused

    stamps, passed, refused = asyncio.run(main())
    late_listening = stamps[late]["listening"]
    assert all(at >= late_listening for at in passed.values()), (
        passed, late_listening
    )
    for pid in range(n):
        s = stamps[pid]
        assert s["listening"] <= s["ring_up"] <= s["members_up"] <= passed[pid]
    assert refused == []  # a member not yet listening is not a crash


def _node_config(tmp_path, spec, pid=0, **placement):
    """Node ``pid`` of ``spec``'s ring; writes its config file."""
    config = LiveNodeConfig(spec=spec, node_id=pid, **placement)
    path = tmp_path / f"node{pid}.json"
    path.write_text(json.dumps(config.to_dict()))
    return config, str(path)


def _spawn(config_path, out_path, *python_flags):
    return subprocess.Popen(
        [sys.executable, *python_flags, "-m", "repro", "live-node",
         "--config", config_path, "--out", out_path],
        env=_node_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


@pytest.mark.live_smoke
@pytest.mark.parametrize("view_changes", [False, True], ids=["static", "live"])
def test_sigterm_before_the_start_barrier_ends_the_node_cleanly(
    tmp_path, view_changes
):
    # Node 0 of a three-member ring whose two siblings never start.
    config, config_path = _node_config(
        tmp_path,
        LiveClusterSpec(
            processes=3, connect_timeout_s=30.0, view_changes=view_changes
        ),
        ring_addresses=[{pid: ("127.0.0.1", _free_port()) for pid in range(3)}],
        journal_path=str(tmp_path / "node0.journal.jsonl"),
    )
    out_path = str(tmp_path / "node0.out.json")
    proc = _spawn(config_path, out_path)
    try:
        deadline = time.monotonic() + 20.0
        while True:  # the node's listening stamp: its ring port accepts
            assert proc.poll() is None, proc.communicate()
            try:
                socket.create_connection(config.ring_addresses[0][0], 0.5).close()
                break
            except OSError:
                assert time.monotonic() < deadline, "node never listened"
                time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=20.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, stderr.decode(errors="replace")
    with open(out_path) as fh:
        record = json.load(fh)
    assert set(record["startup"]) == {"listening"}
    assert record["startup"]["listening"] <= record["end_time"]
    assert record["deliveries"] == [] and record["broadcasts"] == []
    with open(config.journal_path) as fh:
        types = [json.loads(line)["type"] for line in fh]
    assert types == ["end"]  # no start line: the barrier never passed


#: What a node never needs: the simulator's experiment stack and its
#: network, RNG streams and crash injector, the chaos campaign, the
#: paper's figures, the span analysis and (with no metrics port) the
#: ``/metrics`` server.
_NOT_A_NODE = (
    "repro.chaos.campaign", "repro.figures", "repro.cluster",
    "repro.metrics", "repro.workloads", "repro.live.runner",
    "repro.serve.runner", "repro.obs.analyze", "repro.obs.httpexport",
    "repro.net.network", "repro.net.params", "repro.sim.rng",
    "repro.failure.injector",
)


@pytest.mark.live_smoke
def test_a_node_process_imports_only_the_node(tmp_path):
    """A two-member ring runs to its end under ``-X importtime``,
    which names every module each process imported."""
    spec = LiveClusterSpec(
        processes=2, message_bytes=64, duration_s=0.05
    )
    ring = {pid: ("127.0.0.1", _free_port()) for pid in range(2)}
    procs = {}
    for pid in range(2):
        _, config_path = _node_config(
            tmp_path, spec, pid, ring_addresses=[ring]
        )
        out_path = str(tmp_path / f"node{pid}.out.json")
        procs[out_path] = _spawn(config_path, out_path, "-X", "importtime")
    for out_path, proc in procs.items():
        _, stderr = proc.communicate(timeout=60.0)
        text = stderr.decode(errors="replace")
        assert proc.returncode == 0, text
        assert os.path.exists(out_path)
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in text.splitlines() if line.startswith("import time:")
        }
        assert "repro.live.node" in imported
        leaked = sorted(
            name for name in imported
            if any(name == bad or name.startswith(bad + ".") for bad in _NOT_A_NODE)
        )
        assert leaked == []
