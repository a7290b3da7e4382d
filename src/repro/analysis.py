"""Closed-form performance predictions for the simulated cluster.

The discrete-event model is simple enough that its steady-state
behaviour has closed forms; this module states them, and the test suite
holds the simulator to them (``tests/integration/test_analysis.py``).
Having the formulas in code also makes the calibration story auditable:
DESIGN.md §2 claims the host model was fitted to two numbers (Table 1's
94 Mb/s and Figure 8's 79 Mb/s) — these functions are that fit.

All formulas concern the saturated steady state with uniform
``message_bytes`` payloads and FSR's defaults (piggy-backed acks, whose
per-byte cost is negligible at these sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fsr.messages import DATA_HEADER_BYTES, SEQ_EXTRA_BYTES
from repro.core.fsr.ring import Ring
from repro.errors import ConfigurationError
from repro.net.params import NetworkParams


def raw_goodput_bps(params: NetworkParams) -> float:
    """Table 1: point-to-point streaming goodput (framing-limited)."""
    return params.raw_goodput_bps()


def per_hop_period_s(
    params: NetworkParams, message_bytes: int, n: int = 5, t: int = 1
) -> float:
    """Steady-state time one node needs per relayed message.

    Each node processes every message exactly once — its own on the
    send-marshalling path, everyone else's on the receive path — and
    the NIC transfers overlap with processing, so the per-node period
    is the larger of the CPU pass and the wire time.

    When the CPU (not the wire) is the bottleneck the TX path has idle
    slots, so acknowledgments ship standalone rather than piggy-backed;
    a stable ack makes about ``n/2 + t`` hops per message, i.e. each
    node receives ``0.5 + t/n`` ack messages per delivered message,
    each costing the fixed per-message CPU charge.  (Wire-bound
    configurations piggy-back instead and the term vanishes.)
    """
    wire = params.wire_time(message_bytes + DATA_HEADER_BYTES + SEQ_EXTRA_BYTES)
    cpu = params.cpu_time(message_bytes)
    if cpu >= wire:
        cpu += params.cpu_per_message_s * (0.5 + t / n)
    return max(wire, cpu)


def fsr_max_throughput_bps(
    params: NetworkParams, message_bytes: int, n: int = 5, t: int = 1
) -> float:
    """Figure 8/9: FSR's saturated aggregate goodput.

    Essentially independent of ``n``, ``t``, and the number of senders:
    the ring hands each node each payload exactly once, so the per-node
    period is the system's period (``n``/``t`` only enter through the
    small standalone-ack correction in :func:`per_hop_period_s`).
    """
    if message_bytes <= 0:
        raise ConfigurationError("message_bytes must be positive")
    return message_bytes * 8.0 / per_hop_period_s(params, message_bytes, n, t)


def fsr_contention_free_latency_s(
    params: NetworkParams,
    n: int,
    t: int,
    sender_position: int,
    message_bytes: int,
    ack_bytes: int = 64,
) -> float:
    """Figure 6: latency of a single broadcast on an idle cluster.

    The payload makes ``n - 1`` store-and-forward hops, each costing a
    wire transfer, the cut-through first-frame delay, and one CPU pass;
    the remaining hops of the paper's ``L(i)`` round count are tiny ack
    messages.
    """
    ring = Ring(members=tuple(range(n)), t=min(t, n - 1))
    total_hops = ring.latency_rounds(sender_position)
    payload_hops = max(0, n - 1)
    ack_hops = max(0, total_hops - payload_hops)

    payload_wire = params.wire_time(message_bytes + DATA_HEADER_BYTES + SEQ_EXTRA_BYTES)
    payload_hop = (
        payload_wire
        + min(params.first_frame_delay(),
              params.propagation_delay_s + payload_wire)
        + params.cpu_time(message_bytes)
    )
    ack_wire = params.wire_time(ack_bytes)
    ack_hop = (
        ack_wire
        + min(params.first_frame_delay(),
              params.propagation_delay_s + ack_wire)
        + params.cpu_time(ack_bytes)
    )
    # The origin also pays one marshalling pass before the first hop.
    marshal = params.cpu_time(message_bytes)
    return marshal + payload_hops * payload_hop + ack_hops * ack_hop


def fixed_sequencer_max_throughput_bps(
    params: NetworkParams, n: int, message_bytes: int
) -> float:
    """§2.1: the sequencer's TX must carry every payload ``n - 1``
    times, so aggregate goodput collapses as ``raw / (n - 1)`` once
    that exceeds the per-host CPU budget."""
    if n < 2:
        raise ConfigurationError("needs at least two processes")
    wire = params.wire_time(message_bytes) * (n - 1)
    cpu = params.cpu_time(message_bytes)
    return message_bytes * 8.0 / max(wire, cpu)


@dataclass(frozen=True)
class ThroughputPrediction:
    """Bundle of predictions for one configuration (for reports)."""

    raw_mbps: float
    fsr_mbps: float
    fixed_sequencer_mbps: float

    @classmethod
    def for_paper_setup(
        cls, params: NetworkParams, n: int = 5, message_bytes: int = 100_000
    ) -> "ThroughputPrediction":
        return cls(
            raw_mbps=raw_goodput_bps(params) / 1e6,
            fsr_mbps=fsr_max_throughput_bps(params, message_bytes) / 1e6,
            fixed_sequencer_mbps=fixed_sequencer_max_throughput_bps(
                params, n, message_bytes
            ) / 1e6,
        )
