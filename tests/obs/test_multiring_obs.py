"""Ring-tagged spans through the obs pipeline.

Satellite guarantee: multi-ring lifecycle spans carry their inner-ring
id end to end — through per-node journals, the cross-node merger's
rebase, and the per-ring breakdowns ``python -m repro obs`` renders.
"""

import pytest

from repro.core.fsr import FSRConfig
from repro.obs.analyze import ring_breakdowns, stage_breakdown
from repro.obs.journal import (
    SpanJournal,
    Timeline,
    merge_span_journals,
    timeline_from_spanlog,
)
from repro.obs.span import SpanEvent
from repro.protocols.multiring import MultiRingConfig
from tests.conftest import run_broadcasts, small_cluster


def _event(time, node, kind, origin, local, ring=None, sequence=None):
    return SpanEvent(
        time=time, node=node, kind=kind, origin=origin,
        local_seq=local, sequence=sequence, ring=ring,
    )


def test_merged_two_ring_timeline_keeps_ring_tags(tmp_path):
    # Two nodes journal spans of two rings with *different* start times,
    # so the merger must rebase — and rebasing must not drop the ring.
    paths = {}
    for node, start in ((0, 10.0), (1, 10.5)):
        path = str(tmp_path / f"node{node}.spans.jsonl")
        journal = SpanJournal(path, node=node, start_time=start)
        journal.write_event(_event(start + 0.001, node, "broadcast", node, 1,
                                  ring=node % 2))
        journal.write_event(_event(start + 0.002, node, "delivered", node, 1,
                                  ring=node % 2, sequence=node + 1))
        journal.close()
        paths[node] = path

    timeline = merge_span_journals(paths)
    assert timeline.rings() == [0, 1]
    assert all(e.ring is not None for e in timeline.events)
    # Rebase happened (node 0 started earliest) and kept every field.
    assert min(e.time for e in timeline.events) == pytest.approx(0.001)
    for ring in (0, 1):
        sub = timeline.for_ring(ring)
        assert {e.ring for e in sub.events} == {ring}
        assert sub.duration_s == timeline.duration_s
    # Round-trip through the merged-timeline artifact.
    out = str(tmp_path / "timeline.jsonl")
    timeline.write_jsonl(out)
    assert Timeline.load_jsonl(out).rings() == [0, 1]


def test_single_ring_timeline_has_no_rings():
    timeline = Timeline(events=[_event(0.0, 0, "broadcast", 0, 1)])
    assert timeline.rings() == []


def test_sim_multiring_spans_group_per_ring():
    cluster = small_cluster(
        n=4,
        protocol="multiring",
        protocol_config=MultiRingConfig(shards=2, fsr=FSRConfig(t=1)),
        seed=5,
        spans=True,
    )
    plan = [(pid, 4, 8_000) for pid in range(4)]
    result = run_broadcasts(cluster, plan)
    timeline = timeline_from_spanlog(result.spans)

    rings = timeline.rings()
    assert rings and set(rings) <= {0, 1}

    # The global breakdown tolerates noop fillers (traced, never
    # submitted) via strict_submissions=False.
    breakdown = stage_breakdown(
        timeline, broadcasts=result.broadcasts, strict_submissions=False
    )
    assert breakdown.messages > 0

    per_ring = ring_breakdowns(timeline, broadcasts=result.broadcasts)
    assert set(per_ring) <= set(rings)
    assert per_ring  # at least one ring completed real lifecycles
    assert sum(b.messages for b in per_ring.values()) <= breakdown.messages
    for ring, ring_breakdown in per_ring.items():
        assert ring_breakdown.messages > 0
        assert ring_breakdown.end_to_end.mean_s > 0.0
