"""Live loopback smoke for the multi-ring protocol.

Real OS processes, real TCP sockets, S=2 rings per node (one listening
port per ring).  The satellite guarantee: the sharded protocol runs on
the live runtime, deliveries come back ring/slot-tagged, and the merged
result passes the full battery including the shard-interleave checker.
"""

import pytest

from repro.checker.order import check_all
from repro.live.runner import LiveClusterSpec, run_live_cluster

pytestmark = pytest.mark.live_smoke


def test_live_loopback_multiring_total_order():
    spec = LiveClusterSpec(
        processes=3,
        senders=2,
        t=1,
        shards=2,
        message_bytes=10_000,
        duration_s=0.6,
        window=2,
        max_run_s=45.0,
        sim_compare=False,
    )
    live = run_live_cluster(spec)
    assert live.order_ok, live.order_error
    assert not live.timed_out
    assert live.metrics.messages_completed >= 1
    # The battery (incl. shard interleave) on the merged result.
    check_all(live.result)

    # Every delivery came back tagged with a valid ring and a slot
    # consistent with the static interleaving rule.
    for record in live.node_records.values():
        deliveries = record["deliveries"]
        assert deliveries
        for entry in deliveries:
            assert 0 <= entry["ring"] < spec.shards
            assert entry["slot"] % spec.shards == entry["ring"]
    # Ring/slot tags survived the merge into the ExperimentResult.
    for log in live.result.delivery_logs.values():
        assert all(
            d.ring is not None and d.slot is not None for d in log.deliveries
        )


def test_live_loopback_multiring_batched_frames():
    """Batched transports: each ring's batch frames go to that ring's
    inner automaton as one unit (``FSRProcess.on_messages``)."""
    spec = LiveClusterSpec(
        processes=3,
        senders=3,
        t=1,
        shards=2,
        message_bytes=64,
        duration_s=0.6,
        window=16,
        batch_bytes=60_000,
        batch_messages=64,
        max_run_s=45.0,
        sim_compare=False,
    )
    live = run_live_cluster(spec)
    assert live.order_ok, live.order_error
    assert not live.timed_out
    check_all(live.result)
    for record in live.node_records.values():
        assert record["stats"]["batches_received"] > 0
        assert {entry["ring"] for entry in record["deliveries"]} == {0, 1}
