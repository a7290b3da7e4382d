"""Failure detection and fault injection.

The paper's model (Section 3) assumes a Perfect failure detector ``P``:
*strong completeness* (every crashed process is eventually suspected by
every correct process) and *strong accuracy* (no process is suspected
before it crashes).

Two implementations are provided:

* :class:`OracleFailureDetector` — fed directly by the crash injector
  after a configurable detection delay.  Perfect by construction; the
  default for benchmarks, where heavy load would otherwise force very
  conservative heartbeat timeouts.
* :class:`HeartbeatFailureDetector` — real heartbeat traffic with
  timeouts.  Because simulated message delays are bounded when queues
  are bounded, a sufficiently large timeout makes this detector
  genuinely perfect; integration tests run it to show the protocol
  stack works without the oracle.
"""

from repro.failure.detector import (
    AdaptiveFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    OracleFailureDetector,
    StaticDetector,
    adaptive_floor_s,
)
from repro.failure.injector import CrashInjector

__all__ = [
    "AdaptiveFailureDetector",
    "FailureDetector",
    "HeartbeatFailureDetector",
    "OracleFailureDetector",
    "StaticDetector",
    "CrashInjector",
    "adaptive_floor_s",
]
