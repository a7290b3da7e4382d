"""Metrics: throughput, latency, fairness, and report formatting."""

from repro.stats import jain_index, mean, percentile, stddev
from repro.metrics.collector import (
    ExperimentMetrics,
    collect_metrics,
    latency_of_message,
)
from repro.metrics.export import (
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.metrics.report import format_table
from repro.metrics.timeline import delivery_timeline, event_strip, utilisation_bars

__all__ = [
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
    "delivery_timeline",
    "event_strip",
    "utilisation_bars",
    "jain_index",
    "mean",
    "percentile",
    "stddev",
    "ExperimentMetrics",
    "collect_metrics",
    "latency_of_message",
    "format_table",
]
