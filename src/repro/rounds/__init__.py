"""The paper's round-based analysis model (Section 3).

The paper modifies the classic synchronous round model [Lynch96] to
capture switched clusters: in each round ``r``, every process

1. computes its message for the round,
2. **sends** one message — as a unicast *or a best-effort broadcast*
   (one send slot regardless of how many destinations), and
3. **receives a single message** sent to it (further simultaneous
   arrivals queue and consume later rounds' receive slots).

Throughput is measured in *completed TO-broadcasts per round* (a
broadcast completes when every process has delivered it), and a
protocol is throughput-efficient when this is ``>= 1``.

This package implements the model (:class:`RoundEngine`) and one host
(:class:`RoundHost`) that runs any registered protocol — FSR and the
baseline classes the paper surveys — under it, so Section 4.3's claims
— ``L(i) = 2n + t - i - 1``, throughput 1 regardless of ``n``, ``t``
and the sender pattern — and Section 2's per-class deficiencies are
checked on the classes the simulator runs (FSR's also runs on the
sockets).  The
communication-history class keeps a round automaton of its own
(:mod:`repro.rounds.history_round` says why).
"""

from repro.rounds.engine import RoundEngine, RoundMessage, RoundProcess
from repro.rounds.host import RoundHost, fsr_latency_formula
from repro.rounds.analysis import (
    RoundRunResult,
    measure_latency,
    measure_throughput,
)

__all__ = [
    "RoundEngine",
    "RoundMessage",
    "RoundProcess",
    "RoundHost",
    "fsr_latency_formula",
    "RoundRunResult",
    "measure_latency",
    "measure_throughput",
]
