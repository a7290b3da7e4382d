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

from repro._exports import lazy_getattr

#: Public name -> the module that defines it, resolved on first use.
_EXPORTS = {
    "KIND_RANK": "repro.obs.span",
    "SPAN_KINDS": "repro.obs.span",
    "Event": "repro.obs.event",
    "EventLog": "repro.obs.event",
    "SpanEvent": "repro.obs.span",
    "SpanLog": "repro.obs.span",
    "RequestEvent": "repro.obs.reqtrace",
    "RequestLog": "repro.obs.reqtrace",
    "JsonlReader": "repro.obs.journal",
    "JsonlWriter": "repro.obs.journal",
    "SpanJournal": "repro.obs.journal",
    "Timeline": "repro.obs.journal",
    "load_span_journal": "repro.obs.journal",
    "merge_span_journals": "repro.obs.journal",
    "timeline_from_spanlog": "repro.obs.journal",
    "StageStats": "repro.obs.stages",
    "StageBreakdown": "repro.obs.analyze",
    "RequestBreakdown": "repro.obs.reqtrace",
    "stage_breakdown": "repro.obs.analyze",
    "request_breakdown": "repro.obs.reqtrace",
    "crosscheck_latency": "repro.obs.analyze",
    "crosscheck_request_latency": "repro.obs.reqtrace",
    "LinkUtilization": "repro.obs.analyze",
    "link_utilization": "repro.obs.analyze",
    "render_link_table": "repro.obs.analyze",
    "prometheus_snapshot": "repro.obs.analyze",
    "recovery_outage_from_spans": "repro.obs.analyze",
    "Counter": "repro.obs.telemetry",
    "Gauge": "repro.obs.telemetry",
    "Histogram": "repro.obs.telemetry",
    "Telemetry": "repro.obs.telemetry",
    "render_prometheus": "repro.obs.telemetry",
    "MetricsServer": "repro.obs.httpexport",
    "fetch_metrics": "repro.obs.httpexport",
    "http_get": "repro.obs.httpexport",
    "prometheus_metric_names": "repro.obs.httpexport",
    "CpuAccountant": "repro.obs.profile",
    "EventLoopLagSampler": "repro.obs.profile",
    "SamplingProfiler": "repro.obs.profile",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_getattr(__name__, _EXPORTS)
