"""Timeline analysis: latency-stage breakdown and link utilization.

The paper's latency story (§4.3.1) is stage-level: end-to-end latency
decomposes into the forward hops to the leader, the sequencing wait,
and the stability wait.  :func:`stage_breakdown` reproduces that
decomposition from a merged span timeline:

* **hop** — TO-broadcast until the leader assigns a sequence number
  (the ``FwdData`` arc plus the leader's queue);
* **sequencing** — sequence assignment until the message becomes
  *stable* at the last backup ``p_t`` (the ``SeqData`` ring transit);
* **stability** — stability until the last process app-delivers
  (stable/ack propagation plus hold-back release).

The three components sum to the end-to-end latency *by construction*
(each boundary is one span event; :mod:`repro.obs.stages` does the
telescoping), so the breakdown and the metrics collector cannot tell
different stories — and a cross-check against
``ExperimentResult.broadcasts`` submission timestamps enforces that the
two reports share one submission-time source.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CheckFailure
from repro.obs.journal import Timeline
from repro.obs.reqtrace import RequestBreakdown
from repro.obs.stages import (
    Breakdown,
    StageStats,
    StageTable,
    crosscheck,
    first_stamps,
    is_complete,
    telescope,
)
from repro.obs.telemetry import render_prometheus
from repro.types import BroadcastRecord, MessageId

#: The message stage table (§4.3.1's decomposition, measured).
MESSAGE_STAGE_TABLE: StageTable = (
    ("hop", "broadcast", "sequenced"),
    ("sequencing", "sequenced", "stable"),
    ("stability", "stable", "delivered"),
)

#: Stage names in lifecycle order.
STAGES = tuple(stage for stage, _, _ in MESSAGE_STAGE_TABLE)

#: Allowed drift between a ``broadcast`` span and the authoritative
#: submission timestamp in ``ExperimentResult.broadcasts``.  Both are
#: stamped in the same event-loop iteration (the same sim instant in
#: simulation), so anything beyond bookkeeping jitter means the two
#: reports no longer share a submission-time source.
SUBMIT_DRIFT_TOLERANCE_S = 0.010


@dataclass
class StageBreakdown(Breakdown):
    """Latency-stage decomposition of a run."""

    messages: int
    #: Messages skipped for an incomplete lifecycle (e.g. in flight at
    #: a crash, or delivered only after the trace window closed).
    skipped: int
    stages: Dict[str, StageStats]
    end_to_end: StageStats

    def _totals(self) -> List[Tuple[str, StageStats, str]]:
        return [("end-to-end", self.end_to_end, "100.0%")]

    def _footer(self) -> str:
        return f"({self.messages} messages, {self.skipped} incomplete)"


def stage_breakdown(
    timeline: Timeline,
    broadcasts: Optional[Iterable[BroadcastRecord]] = None,
    strict_submissions: bool = True,
) -> StageBreakdown:
    """Decompose per-message latency into hop/sequencing/stability.

    A message completes at its *last* ``delivered`` span; every other
    boundary is the first span of its kind.  ``broadcasts`` (when the
    caller has an ``ExperimentResult``) is the authoritative
    submission-time source — the same one
    :func:`repro.metrics.collector.collect_metrics` uses.  Each
    message's ``broadcast`` span is cross-checked against it and a
    :class:`~repro.errors.CheckFailure` raised on drift beyond
    :data:`SUBMIT_DRIFT_TOLERANCE_S`, so the stage breakdown and the
    latency report cannot silently diverge.  Standalone timeline
    analysis (``python -m repro obs`` on a file) passes none and
    trusts the spans.

    ``strict_submissions=False`` skips (instead of failing on) traced
    messages absent from ``broadcasts`` — multi-ring runs inject noop
    filler messages below the application, which the rings trace but
    the workload never submitted.
    """
    submit_times: Optional[Dict[MessageId, float]] = None
    if broadcasts is not None:
        submit_times = {
            record.message_id: record.submit_time for record in broadcasts
        }

    lifecycles: List[Dict[str, float]] = []
    skipped = 0
    for message_id, events in timeline.by_message().items():
        stamps = first_stamps(events)
        delivered = [e.time for e in events if e.kind == "delivered"]
        if delivered:
            stamps["delivered"] = max(delivered)
        if not is_complete(MESSAGE_STAGE_TABLE, stamps):
            skipped += 1
            continue

        if submit_times is not None:
            submit = stamps["broadcast"]
            authoritative = submit_times.get(message_id)
            if authoritative is None:
                if not strict_submissions:
                    skipped += 1
                    continue
                raise CheckFailure(
                    f"span timeline has {message_id} but "
                    "ExperimentResult.broadcasts does not: the stage "
                    "breakdown and the metrics report disagree on what "
                    "was submitted"
                )
            if abs(authoritative - submit) > SUBMIT_DRIFT_TOLERANCE_S:
                raise CheckFailure(
                    f"{message_id}: broadcast span at {submit:.6f} but "
                    f"recorded submission at {authoritative:.6f} "
                    f"(drift {abs(authoritative - submit) * 1e3:.2f} ms > "
                    f"{SUBMIT_DRIFT_TOLERANCE_S * 1e3:.1f} ms): submission "
                    "timestamps no longer share one source"
                )
            stamps["broadcast"] = authoritative
        lifecycles.append(stamps)

    if not lifecycles:
        raise CheckFailure(
            "no message in the timeline completed a full lifecycle "
            "(broadcast/sequenced/stable/delivered); was the run traced "
            "with spans enabled?"
        )

    stages, end_to_end = telescope(MESSAGE_STAGE_TABLE, lifecycles)
    return StageBreakdown(
        messages=len(lifecycles),
        skipped=skipped,
        stages=stages,
        end_to_end=end_to_end,
    )


def ring_breakdowns(
    timeline: Timeline,
    broadcasts: Optional[Iterable[BroadcastRecord]] = None,
) -> Dict[int, StageBreakdown]:
    """Per-inner-ring stage breakdowns of a multi-ring timeline.

    Every FSR lifecycle span of a multi-ring run is tagged with the
    inner ring that carried the message, so each ring's sequencing
    pipeline can be profiled independently — an overloaded or recovering
    ring shows up as that ring's stages ballooning while its siblings
    stay flat.  Rings whose sub-timeline has no completed lifecycle
    (all noops, or all in flight at a crash) are omitted.  Empty for
    single-ring timelines (no ring tags).
    """
    out: Dict[int, StageBreakdown] = {}
    for ring in timeline.rings():
        try:
            out[ring] = stage_breakdown(
                timeline.for_ring(ring),
                broadcasts=broadcasts,
                strict_submissions=False,
            )
        except CheckFailure:
            continue
    return out


def crosscheck_latency(breakdown: StageBreakdown, mean_latency_s: float) -> None:
    """Assert the stage sum matches the metrics collector's latency:
    hop + sequencing + stability must explain the measured end-to-end
    number (:func:`repro.obs.stages.crosscheck`)."""
    crosscheck(
        sum(stats.mean_s for stats in breakdown.stages.values()),
        mean_latency_s,
        "stage breakdown sums to",
        "the metrics collector measured an end-to-end of",
    )


# ----------------------------------------------------------------------
# Per-link utilization
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinkUtilization:
    """One ring link (node -> successor), from live telemetry."""

    node: int
    successor: int
    bytes_sent: int
    mbps: float
    tx_stalls: int
    queue_hwm_bytes: float

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


def link_utilization(timeline: Timeline) -> List[LinkUtilization]:
    """Per-link throughput/backpressure from telemetry snapshots.

    Nodes are assumed to be in ring order (live clusters number them
    so); the link leaving node ``i`` lands on the next telemetry-bearing
    node.  Empty when the timeline carries no telemetry (simulated runs
    report NIC utilization through the simulator's own NIC stats).
    """
    nodes = sorted(timeline.telemetry)
    if not nodes or timeline.duration_s <= 0:
        return []
    links: List[LinkUtilization] = []
    for index, node in enumerate(nodes):
        snap = timeline.telemetry[node]
        counters = dict(snap.get("counters", {}))
        gauges = dict(snap.get("gauges", {}))
        bytes_sent = int(counters.get("transport_bytes_sent", 0))
        links.append(
            LinkUtilization(
                node=node,
                successor=nodes[(index + 1) % len(nodes)],
                bytes_sent=bytes_sent,
                mbps=bytes_sent * 8.0 / timeline.duration_s / 1e6,
                tx_stalls=int(counters.get("transport_tx_stalls", 0)),
                queue_hwm_bytes=float(
                    dict(gauges.get("transport_queued_bytes", {})).get(
                        "high_water", 0.0
                    )
                ),
            )
        )
    return links


def render_link_table(links: List[LinkUtilization]) -> str:
    if not links:
        return "(no telemetry in timeline — simulated run?)"
    header = (
        f"{'link':<10} {'Mb/s':>8} {'bytes':>12} {'stalls':>7} {'queue hwm':>10}"
    )
    lines = [header, "-" * len(header)]
    for link in links:
        lines.append(
            f"{link.node}->{link.successor:<7} {link.mbps:>8.1f} "
            f"{link.bytes_sent:>12} {link.tx_stalls:>7} "
            f"{link.queue_hwm_bytes:>10.0f}"
        )
    return "\n".join(lines)


def _stage_gauges(
    prefix: str, breakdown: Breakdown, end_to_end: StageStats
) -> Dict[str, float]:
    gauges: Dict[str, float] = {}
    for name, stats in breakdown.stages.items():
        gauges[f"{prefix}_stage_{name}_mean_seconds"] = stats.mean_s
        gauges[f"{prefix}_stage_{name}_share"] = stats.share
    gauges[f"{prefix}_end_to_end_mean_seconds"] = end_to_end.mean_s
    gauges[f"{prefix}_end_to_end_p99_seconds"] = end_to_end.p99_s
    return gauges


def prometheus_snapshot(
    timeline: Timeline,
    breakdown: Optional[StageBreakdown] = None,
    requests: Optional[RequestBreakdown] = None,
) -> str:
    """Prometheus text exposition: per-node telemetry + stage gauges.

    ``requests`` adds the serve-layer request-stage gauges (end-to-end
    over every serve path, the population clients see);
    ``spans_dropped`` surfaces capacity-capped span loss so a truncated
    trace can never read as a complete one.
    """
    extra: Dict[str, float] = {"spans_dropped": float(timeline.dropped)}
    if breakdown is not None:
        extra.update(_stage_gauges("latency", breakdown, breakdown.end_to_end))
    if requests is not None:
        extra.update(_stage_gauges("request", requests, requests.overall))
    return render_prometheus(timeline.telemetry, extra=extra)


# ----------------------------------------------------------------------
# Recovery outage (chaos campaigns' measurement path)
# ----------------------------------------------------------------------

def worst_gap_ms(
    series: Iterable[Sequence[float]], crash_times: Sequence[float]
) -> Optional[float]:
    """Worst gap, in ms, any one series shows across any crash instant:
    from its last stamp at or before the crash to its first one after.

    ``None`` when nobody crashed or no series has stamps on both sides
    of a crash.
    """
    worst: Optional[float] = None
    for times in series:
        for crash_at in crash_times:
            before = [t for t in times if t <= crash_at]
            after = [t for t in times if t > crash_at]
            if before and after:
                gap_ms = (min(after) - max(before)) * 1e3
                worst = gap_ms if worst is None else max(worst, gap_ms)
    return worst


def recovery_outage_from_spans(
    timeline: Timeline,
    crash_times: Sequence[float],
    survivors: Iterable[int],
) -> Optional[float]:
    """Worst survivor gap in ``delivered`` spans straddling a crash, ms.

    The span-timeline version of
    :func:`repro.chaos.campaign.recovery_outage_ms`: instead of
    ad-hoc per-scenario timing over delivery logs, the outage is read
    off the same lifecycle timeline every other report uses, so outage
    stats and traces cannot disagree.
    """
    per_node: Dict[int, List[float]] = {node: [] for node in survivors}
    for event in timeline.events:
        if event.kind == "delivered" and event.node in per_node:
            per_node[event.node].append(event.time)
    return worst_gap_ms(per_node.values(), crash_times)
