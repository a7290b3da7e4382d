"""The metric registry: every name the benchmark prints, with its unit
and direction.  ``BENCHMARK.json`` carries the same lists (a test in
``bench/tests`` holds the two together); definitions are in README.md.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may worsen; see README.md "Bounds" for the
#: A/A spreads they were set from.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]

_ISOLATED = [
    ("codec.encode_64b_ns", "ns", "lower"),
    ("codec.encode_alloc_64b_ns", "ns", "lower"),
    ("codec.decode_64b_ns", "ns", "lower"),
    ("codec.batch_decode_64b_ns", "ns", "lower"),
    ("codec.encode_100kb_ns", "ns", "lower"),
    ("codec.encode_alloc_100kb_ns", "ns", "lower"),
    ("codec.decode_100kb_ns", "ns", "lower"),
    ("fsr.null_ring_msgs_per_s", "1/s", "higher"),
    ("fsr.on_message_us", "us", "lower"),
    ("transport.loopback_frames_per_s_unbatched", "1/s", "higher"),
    ("transport.loopback_frames_per_s_batched", "1/s", "higher"),
    ("wire.request_roundtrip_us", "us", "lower"),
    ("wire.response_roundtrip_us", "us", "lower"),
    ("session.apply_us", "us", "lower"),
    ("session.dedup_lookup_us", "us", "lower"),
    ("server.single_replica_rps", "1/s", "higher"),
    ("server.single_replica_p50_ms", "ms", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.goodput_mbps", "Mb/s", "higher"),
    ("sim.events_per_broadcast", "count", "lower"),
    ("sim.wire_msgs_per_broadcast", "count", "lower"),
    ("model.goodput_mbps", "Mb/s", "higher"),
    ("model.latency_hops", "count", "lower"),
]

_PER_WORKLOAD = [
    ("host.steal_fraction", "ratio", "lower"),
    ("host.quiet_windows", "count", "higher"),
    ("node.cpu_us_per_op", "us", "lower"),
    ("node.cpu_busy_fraction", "ratio", "lower"),
    ("node.loop_lag_p99_ms", "ms", "lower"),
    ("transport.frames_per_op", "count", "lower"),
    ("transport.bytes_per_op", "bytes", "lower"),
    ("transport.frames_per_flush", "count", "higher"),
    ("transport.bytes_per_flush", "bytes", "higher"),
    ("transport.acks_ridden_ratio", "ratio", "higher"),
    ("transport.tx_stalls", "count", "lower"),
    ("transport.queued_bytes_hwm", "bytes", "lower"),
    ("ring.deliver_p50_ms", "ms", "lower"),
    ("ring.deliver_p99_ms", "ms", "lower"),
    ("ring.goodput_mbps", "Mb/s", "higher"),
    ("server.local_read_ratio", "ratio", "higher"),
    ("server.ordered_ratio", "ratio", "lower"),
    ("server.lease_rejects", "count", "lower"),
    ("server.barrier_rejects", "count", "lower"),
    ("server.dedup_hits", "count", "lower"),
    ("server.cached", "count", "lower"),
    ("client.retries", "count", "lower"),
    ("client.reconnects", "count", "lower"),
    ("client.cached_responses", "count", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("client.outage_s", "s", "lower"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.outstanding_at_end", "count", "lower"),
    ("detector.detect_s", "s", "lower"),
    ("detector.false_suspicions", "count", "lower"),
    ("membership.view_change_s", "s", "lower"),
    ("membership.views_installed", "count", "lower"),
    ("runner.teardown_s", "s", "lower"),
    ("runner.teardown_skew", "count", "lower"),
    ("checker.verify_s", "s", "lower"),
]

#: layer key in the trace files -> metric (self CPU µs per operation).
SELF_TIME: Dict[str, str] = {
    "fsr": "fsr.self_us_per_op",
    "codec.encode": "codec.encode_self_us_per_op",
    "codec.decode": "codec.decode_self_us_per_op",
    "transport.send": "transport.send_self_us_per_op",
    "session.apply": "session.apply_self_us_per_op",
    "wire": "wire.self_us_per_op",
    "smr.deliver": "smr.deliver_self_us_per_op",
}

_TRACED = [(name, "us", "lower") for name in SELF_TIME.values()] + [
    ("trace.node_cpu_us_per_op", "us", "lower"),
    ("trace.unattributed_us_per_op", "us", "lower"),
    ("trace.spans_sampled", "count", "higher"),
    ("obs.trace_overhead_fraction", "ratio", "lower"),
    ("obs.trace_cpu_overhead_fraction", "ratio", "lower"),
    ("server.queue_ms", "ms", "lower"),
    ("ring.replication_ms", "ms", "lower"),
    ("session.apply_ms", "ms", "lower"),
    ("server.respond_ms", "ms", "lower"),
]

#: What only a traced run can measure.
TRACED = frozenset(name for name, _unit, _better in _TRACED)

#: (name, unit, better); no bounds.
PER_LAYER: List[Tuple[str, str, str]] = _ISOLATED + _PER_WORKLOAD + _TRACED

UNIT: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
