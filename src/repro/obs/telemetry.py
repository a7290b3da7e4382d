"""Runtime telemetry: counters, high-water gauges, and histograms.

The live runtime accumulates operational metrics the simulator cannot
see — reconnects, ``tx_ready`` backpressure stalls, send-queue depth
high-water marks, heartbeat RTTs, view-install durations.  A
:class:`Telemetry` registry holds them by name, snapshots to a plain
dict (for JSONL journals and ``BENCH_live.json``), and renders a
Prometheus-style text exposition for ``python -m repro obs``.

Instruments are plain Python objects with no locks: each live node is
single-threaded (one asyncio loop), and the simulator is sequential by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.stats import mean, percentile


class Counter:
    """Monotonic event count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Instantaneous value with a high-water mark."""

    __slots__ = ("value", "high_water")

    def __init__(self) -> None:
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value


class Histogram:
    """Sample distribution (durations in seconds, depths, ...).

    Keeps raw samples — live runs are short and bounded, so memory is
    not a concern, and raw samples let the analyzer compute any
    percentile exactly via :func:`repro.stats.percentile`.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": 0}
        return {
            "count": len(self.samples),
            "sum": sum(self.samples),
            "min": min(self.samples),
            "max": max(self.samples),
            "mean": mean(self.samples),
            "p50": percentile(self.samples, 50.0),
            "p99": percentile(self.samples, 99.0),
        }


class Telemetry:
    """Named registry of counters, gauges, and histograms.

    Instruments are created on first use so emitting code never needs a
    registration step::

        telemetry.counter("transport_reconnects").inc()
        telemetry.histogram("heartbeat_rtt_s").observe(rtt)
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram()
        return instrument

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Plain-dict snapshot for JSONL journals and bench payloads."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {
                name: {"value": g.value, "high_water": g.high_water}
                for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
        }


def render_prometheus(
    snapshots: Dict[int, Dict[str, object]],
    prefix: str = "repro",
    extra: Optional[Dict[str, float]] = None,
) -> str:
    """Render per-node telemetry snapshots as Prometheus text exposition.

    ``snapshots`` maps node id -> :meth:`Telemetry.snapshot` dict.
    Counters become ``<prefix>_<name>{node="i"}``; gauges emit value and
    ``_high_water``; histograms emit Prometheus summary series (count,
    sum, and quantile-labelled samples).  ``extra`` adds unlabelled
    top-level gauges (e.g. the analyzer's stage shares).
    """
    lines: List[str] = []
    names_seen: set = set()

    def header(name: str, metric_type: str) -> None:
        if name not in names_seen:
            names_seen.add(name)
            lines.append(f"# TYPE {name} {metric_type}")

    for node in sorted(snapshots):
        snap = snapshots[node]
        for name, value in sorted(dict(snap.get("counters", {})).items()):
            metric = f"{prefix}_{name}_total"
            header(metric, "counter")
            lines.append(f'{metric}{{node="{node}"}} {value}')
        for name, gauge in sorted(dict(snap.get("gauges", {})).items()):
            metric = f"{prefix}_{name}"
            header(metric, "gauge")
            lines.append(f'{metric}{{node="{node}"}} {gauge["value"]}')
            hw_metric = f"{prefix}_{name}_high_water"
            header(hw_metric, "gauge")
            lines.append(f'{hw_metric}{{node="{node}"}} {gauge["high_water"]}')
        for name, hist in sorted(dict(snap.get("histograms", {})).items()):
            metric = f"{prefix}_{name}"
            header(metric, "summary")
            count = hist.get("count", 0)
            lines.append(f'{metric}_count{{node="{node}"}} {count}')
            if count:
                lines.append(f'{metric}_sum{{node="{node}"}} {hist["sum"]}')
                for label, key in (("0.5", "p50"), ("0.99", "p99")):
                    if key in hist:
                        lines.append(
                            f'{metric}{{node="{node}",quantile="{label}"}} {hist[key]}'
                        )
    for name, value in sorted((extra or {}).items()):
        metric = f"{prefix}_{name}"
        header(metric, "gauge")
        lines.append(f"{metric} {value}")
    return "\n".join(lines) + "\n"
