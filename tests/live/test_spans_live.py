"""Live span tracing: per-node journals, merged timeline, conformance.

Acceptance path for the observability layer: a real multi-process run
with spans enabled must yield a merged cross-node timeline whose
per-message lifecycles match what the simulator produces for the same
workload, and whose latency-stage breakdown explains the measured
end-to-end latency (the runner's cross-check enforces 5%).
"""

from collections import Counter

import pytest

from repro import ClusterConfig, FSRConfig, build_cluster
from repro.live.runner import LiveClusterSpec, run_live_cluster, run_origin
from repro.obs.analyze import STAGES, link_utilization
from repro.obs.journal import Timeline
from repro.types import MessageId
from repro.workloads import KToNPattern, run_workload

pytestmark = pytest.mark.live_smoke

MESSAGES = 8
MESSAGE_BYTES = 8_000
N = 3
T = 1
SENDERS = 2


def _live_spec():
    return LiveClusterSpec(
        processes=N,
        senders=SENDERS,
        t=T,
        message_bytes=MESSAGE_BYTES,
        duration_s=10.0,  # unused: messages_per_sender is the stop rule
        window=2,
        max_run_s=30.0,
        sim_compare=False,
        messages_per_sender=MESSAGES,
        spans=True,
    )


def _sim_spans():
    cluster = build_cluster(ClusterConfig(
        n=N, protocol="fsr", protocol_config=FSRConfig(t=T), spans=True,
    ))
    pattern = KToNPattern(
        senders=tuple(range(SENDERS)),
        messages_per_sender=MESSAGES,
        message_bytes=MESSAGE_BYTES,
    )
    return run_workload(cluster, pattern).result.spans


def test_live_spans_merge_and_conform_to_sim(tmp_path):
    live = run_live_cluster(_live_spec())
    assert live.order_ok, live.order_error
    assert live.timeline is not None
    assert live.breakdown is not None

    timeline = live.timeline
    # Every node journalled: spans and final telemetry from all three.
    assert timeline.nodes() == list(range(N))
    assert set(timeline.telemetry) == set(range(N))

    expected = {
        MessageId(origin, seq)
        for origin in range(SENDERS)
        for seq in range(1, MESSAGES + 1)
    }
    assert set(timeline.messages()) == expected

    # Sim/live conformance: the same workload takes the same lifecycle
    # through the same protocol automaton — per-message span kind
    # multisets are identical across runtimes.
    sim_spans = _sim_spans()
    for message in sorted(expected):
        live_kinds = Counter(e.kind for e in timeline.lifecycle(message))
        sim_kinds = Counter(e.kind for e in sim_spans.lifecycle(message))
        assert live_kinds == sim_kinds, message
        assert timeline.lifecycle(message)[0].kind == "broadcast"

    # A broadcast is submitted before its own ``broadcast`` span, the
    # leader's too (it sequences its message inside ``broadcast()``).
    t0 = run_origin(live.node_records)
    for record in live.node_records.values():
        for entry in record["broadcasts"]:
            message = MessageId(entry["origin"], entry["local_seq"])
            span = timeline.lifecycle(message)[0]
            assert entry["submit_time"] - t0 <= span.time, message

    # The stage breakdown covered every message and explains the
    # measured latency (run_live_cluster's cross-check enforces 5%;
    # assert it again explicitly as the acceptance bar).
    breakdown = live.breakdown
    assert breakdown.messages == len(expected)
    stage_sum = sum(breakdown.stages[name].mean_s for name in STAGES)
    assert stage_sum == pytest.approx(live.metrics.mean_latency_s, rel=0.05)

    # Telemetry carries real transport counters -> per-link table works.
    links = link_utilization(timeline)
    assert len(links) == N
    assert all(link.bytes_sent > 0 for link in links)

    # The merged timeline round-trips through its file format.
    path = str(tmp_path / "timeline.jsonl")
    timeline.write_jsonl(path)
    loaded = Timeline.load_jsonl(path)
    assert len(loaded.events) == len(timeline.events)
    assert set(loaded.telemetry) == set(timeline.telemetry)


def test_spans_disabled_run_produces_no_timeline():
    spec = _live_spec()
    spec.spans = False
    live = run_live_cluster(spec)
    assert live.order_ok, live.order_error
    assert live.timeline is None
    assert live.breakdown is None
    # Telemetry still rides in each node's record (cheap counters).
    for record in live.node_records.values():
        assert "telemetry" in record
        counters = record["telemetry"]["counters"]
        assert counters["transport_frames_sent"] >= 0
