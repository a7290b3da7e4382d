"""Unified observability: message-lifecycle spans and runtime telemetry.

One instrumentation layer for both runtimes — the discrete-event
simulator and the live asyncio/TCP cluster emit the same per-message
lifecycle spans (``broadcast -> fwd_hop -> sequenced -> stored ->
stable -> delivered``) through the shared ``Clock`` protocol, and live
nodes add operational telemetry the simulator cannot see (reconnects,
backpressure stalls, heartbeat RTTs, view-install durations).

Everything is off by default and free when disabled; see DESIGN.md
§"Observability" and ``python -m repro obs``.

The protocol core imports this package, so nothing here may import
above ``repro.errors`` / ``repro.types`` / ``repro.stats``
(``tests/cluster/test_public_api.py`` imports every module first into
a clean interpreter state to keep it so).
"""

from repro.obs.analyze import (
    LinkUtilization,
    StageBreakdown,
    crosscheck_latency,
    link_utilization,
    prometheus_snapshot,
    recovery_outage_from_spans,
    render_link_table,
    stage_breakdown,
)
from repro.obs.event import Event, EventLog
from repro.obs.httpexport import (
    MetricsServer,
    fetch_metrics,
    http_get,
    prometheus_metric_names,
)
from repro.obs.journal import (
    JsonlReader,
    JsonlWriter,
    SpanJournal,
    Timeline,
    load_span_journal,
    merge_span_journals,
    timeline_from_spanlog,
)
from repro.obs.profile import CpuAccountant, EventLoopLagSampler, SamplingProfiler
from repro.obs.reqtrace import (
    RequestBreakdown,
    RequestEvent,
    RequestLog,
    crosscheck_request_latency,
    request_breakdown,
)
from repro.obs.span import KIND_RANK, SPAN_KINDS, SpanEvent, SpanLog
from repro.obs.stages import StageStats
from repro.obs.telemetry import Counter, Gauge, Histogram, Telemetry, render_prometheus

__all__ = [
    "KIND_RANK",
    "SPAN_KINDS",
    "Event",
    "EventLog",
    "SpanEvent",
    "SpanLog",
    "RequestEvent",
    "RequestLog",
    "JsonlReader",
    "JsonlWriter",
    "SpanJournal",
    "Timeline",
    "load_span_journal",
    "merge_span_journals",
    "timeline_from_spanlog",
    "StageStats",
    "StageBreakdown",
    "RequestBreakdown",
    "stage_breakdown",
    "request_breakdown",
    "crosscheck_latency",
    "crosscheck_request_latency",
    "LinkUtilization",
    "link_utilization",
    "render_link_table",
    "prometheus_snapshot",
    "recovery_outage_from_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "render_prometheus",
    "MetricsServer",
    "fetch_metrics",
    "http_get",
    "prometheus_metric_names",
    "CpuAccountant",
    "EventLoopLagSampler",
    "SamplingProfiler",
]
