"""Sim/live conformance: ``FSRProcess`` behaves identically on both
schedulers.

The protocol layer is scheduler-agnostic by design — the same
``FSRProcess`` runs on the discrete-event simulator and on asyncio over
TCP.  These tests pin that claim end to end: the same workload run on
both produces the same delivered sequence (single sender: bit-identical
total order; multiple senders: same message set and per-origin FIFO,
since the interleaving is timing-dependent by nature).
"""

import pytest

from repro import ClusterConfig, FSRConfig, build_cluster
from repro.live.runner import LiveClusterSpec, run_live_cluster
from repro.types import MessageId
from repro.workloads import KToNPattern, run_workload

pytestmark = pytest.mark.live_smoke

MESSAGES = 8
MESSAGE_BYTES = 8_000


def _live_spec(senders):
    return LiveClusterSpec(
        processes=3,
        senders=senders,
        t=1,
        message_bytes=MESSAGE_BYTES,
        duration_s=10.0,  # unused: messages_per_sender is the stop rule
        window=2,
        max_run_s=30.0,
        sim_compare=False,
        messages_per_sender=MESSAGES,
    )


def _sim_result(senders):
    cluster = build_cluster(ClusterConfig(
        n=3, protocol="fsr", protocol_config=FSRConfig(t=1),
    ))
    pattern = KToNPattern(
        senders=tuple(range(senders)),
        messages_per_sender=MESSAGES,
        message_bytes=MESSAGE_BYTES,
    )
    return run_workload(cluster, pattern).result


def _sequences(result):
    return {
        pid: [d.message_id for d in log.deliveries]
        for pid, log in result.delivery_logs.items()
    }


def test_single_sender_same_total_order_sim_and_live():
    live = run_live_cluster(_live_spec(senders=1))
    assert live.order_ok, live.order_error
    assert not live.timed_out
    sim_seqs = _sequences(_sim_result(senders=1))
    live_seqs = _sequences(live.result)

    expected = [MessageId(0, seq) for seq in range(1, MESSAGES + 1)]
    for pid in range(3):
        assert live_seqs[pid] == expected, f"live node {pid} diverged"
        assert sim_seqs[pid] == expected, f"sim node {pid} diverged"
    # Same closed-loop count on both runtimes: nothing dropped, nothing
    # extra submitted.
    assert sum(len(ids) for ids in live.outcome.sent.values()) == MESSAGES


def test_two_senders_same_message_set_and_per_origin_fifo():
    live = run_live_cluster(_live_spec(senders=2))
    assert live.order_ok, live.order_error
    sim_seqs = _sequences(_sim_result(senders=2))
    live_seqs = _sequences(live.result)

    expected_set = {
        MessageId(origin, seq)
        for origin in range(2)
        for seq in range(1, MESSAGES + 1)
    }
    for seqs in (sim_seqs, live_seqs):
        for pid, sequence in seqs.items():
            assert set(sequence) == expected_set, f"node {pid} set differs"
            for origin in range(2):
                own = [m.local_seq for m in sequence if m.origin == origin]
                assert own == sorted(own), f"origin {origin} not FIFO"
    # All nodes agree with each other inside each runtime (total order).
    assert len({tuple(s) for s in live_seqs.values()}) == 1
    assert len({tuple(s) for s in sim_seqs.values()}) == 1
