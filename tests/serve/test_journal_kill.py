"""A SIGKILLed serve node's journal holds every reply it sent.

A node writes its journal once per loop turn, ahead of that turn's
socket writes, so a kill can only lose lines that no peer or client
could have seen.  Checked end to end: a client keeps 32 pipelined writes
in flight on one connection to one node, which is SIGKILLed mid-load.
Every reply that client received — all of them from the killed node —
has its ``apply`` line in the killed node's journal, and that journal
is still a prefix of the survivors' applied sequence (with every acked
write applied exactly once on each survivor).
"""

import asyncio

import pytest

from repro.live.runner import LiveCluster
from repro.serve.loadgen import LoadStats
from repro.serve.runner import (
    ServeSpec,
    _await_drain,
    load_applied_log,
    verify_serve_run,
)
from repro.serve.wire import (
    FrameSlicer,
    Request,
    decode_response,
    encode_request,
)

pytestmark = pytest.mark.live_smoke

OUTSTANDING = 32
KILL_AT_S = 1.0
CLIENT = "kill-probe"


async def _pipelined_writes(address, kill):
    """Closed-loop puts on one connection until it dies; returns the
    sequence numbers answered ``ok``."""
    loop = asyncio.get_running_loop()
    reader, writer = await asyncio.open_connection(*address)
    next_seq = 1

    def send(count):
        nonlocal next_seq
        writer.write(b"".join(
            encode_request(Request(
                client=CLIENT, seq=seq, first_unacked=1, barrier=0,
                op="put", args=(f"k{seq % 50}", f"v{seq}"),
            ))
            for seq in range(next_seq, next_seq + count)
        ))
        next_seq += count

    acked = []
    slicer = FrameSlicer()
    send(OUTSTANDING)
    loop.call_later(KILL_AT_S, kill)
    deadline = loop.time() + KILL_AT_S + 10.0
    try:
        while loop.time() < deadline:
            data = await asyncio.wait_for(reader.read(1 << 16), 10.0)
            if not data:
                break
            for body in slicer.feed(data):
                response = decode_response(body)
                if response.ok:
                    acked.append(response.seq)
                send(1)
    except (ConnectionError, asyncio.TimeoutError):
        pass
    finally:
        writer.close()
    return acked


def test_every_reply_of_a_killed_node_is_in_its_journal():
    spec = ServeSpec(processes=3, heartbeat_timeout_s=1.0).live_spec()
    with LiveCluster.launch(spec, journals=True) as cluster:
        cluster.await_started(30.0)
        victim = cluster.members[1]
        acked = asyncio.run(_pipelined_writes(
            cluster.serve_addresses[victim], lambda: cluster.kill(victim)
        ))
        assert victim in cluster.killed, "node never killed"
        stats = LoadStats()
        stats.acked_writes = [
            (CLIENT, seq, "put", (f"k{seq % 50}", f"v{seq}")) for seq in acked
        ]
        _await_drain(cluster, stats.acked_writes, 5.0)
        records = cluster.stop()
        applied_by_node = {
            pid: load_applied_log(path)
            for pid, path in cluster.journal_paths.items()
        }

    assert len(acked) > 2 * OUTSTANDING, "load never ran"
    journalled = {
        event["seq"] for event in applied_by_node[victim]
        if event["client"] == CLIENT
    }
    missing = sorted(set(acked) - journalled)
    assert missing == [], f"replied but not journalled: {missing[:10]}"
    survivors = [pid for pid in cluster.members if pid != victim]
    violations = verify_serve_run(
        stats, applied_by_node, survivors, victim,
        {pid: records[pid]["serve"]["snapshot_hash"] for pid in survivors},
    )
    assert violations == [], violations
