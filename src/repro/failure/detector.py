"""Perfect failure detector implementations.

See the package docstring for the choice between the oracle and
heartbeat variants.  Both expose the same small interface so the
membership layer does not care which one it is wired to.
"""

from __future__ import annotations

import logging
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.net.dispatch import Port
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog
from repro.types import ProcessId, TimerHandle

logger = logging.getLogger(__name__)


def adaptive_floor_s(interval_s: float, ceiling_s: float) -> float:
    """Default lower clamp of the adaptive suspicion timeout.

    Never below four heartbeat intervals (one delayed probe plus
    scheduling noise must not look like a crash) and never below 35% of
    the configured ceiling (the bound chaos generators keep
    "sub-threshold" jitter under — see
    ``repro.chaos.schedules.hostile_network``).
    """
    return max(4.0 * interval_s, 0.35 * ceiling_s)

#: Upcall signature: invoked once per newly suspected process.
SuspectCallback = Callable[[ProcessId], None]


class FailureDetector(ABC):
    """Common interface of the perfect failure detector module."""

    def __init__(self) -> None:
        self._suspected: Set[ProcessId] = set()
        self._callbacks: List[SuspectCallback] = []

    def suspected(self) -> Set[ProcessId]:
        """The set of processes currently suspected (i.e. crashed)."""
        return set(self._suspected)

    def is_suspected(self, pid: ProcessId) -> bool:
        return pid in self._suspected

    def on_suspect(self, callback: SuspectCallback) -> None:
        """Register an upcall fired once per newly suspected process."""
        self._callbacks.append(callback)

    @abstractmethod
    def monitor(self, peers: Iterable[ProcessId]) -> None:
        """Replace the set of peers being monitored."""

    def _suspect(self, pid: ProcessId) -> None:
        if pid in self._suspected:
            return
        self._suspected.add(pid)
        for callback in list(self._callbacks):
            callback(pid)


class StaticDetector(FailureDetector):
    """Failure detector of a static membership: trusts everyone."""

    def monitor(self, peers: Iterable[ProcessId]) -> None:  # noqa: D102
        pass


class OracleFailureDetector(FailureDetector):
    """Perfect detector fed by the crash injector.

    The injector calls :meth:`notify_crash`; the detector reports the
    suspicion ``detection_delay_s`` later, modelling the time a real
    detector would need.  Accuracy is perfect by construction.
    """

    def __init__(
        self, sim: Simulator, owner: ProcessId, detection_delay_s: float = 20e-3
    ) -> None:
        super().__init__()
        self.sim = sim
        self.owner = owner
        self.detection_delay_s = detection_delay_s
        self._monitored: Set[ProcessId] = set()
        self._pending_crashes: Set[ProcessId] = set()

    def monitor(self, peers: Iterable[ProcessId]) -> None:
        self._monitored = {p for p in peers if p != self.owner}
        # A peer that crashed before we started monitoring it must still
        # be reported (strong completeness).
        for pid in self._monitored & self._pending_crashes:
            self.sim.schedule(self.detection_delay_s, self._suspect, pid)

    def notify_crash(self, pid: ProcessId) -> None:
        """Called by the injector the instant ``pid`` crashes."""
        if pid == self.owner:
            return
        self._pending_crashes.add(pid)
        if pid in self._monitored:
            self.sim.schedule(self.detection_delay_s, self._suspect, pid)


@dataclass
class _Heartbeat:
    """Tiny liveness probe.

    ``echo`` / ``sent_at`` support RTT telemetry on the live control
    plane: a detector with an ``rtt_observer`` echoes every probe back
    with the original send timestamp, and the prober observes the round
    trip.  Without an observer (the simulator) no echoes are ever sent,
    so simulated message counts are unchanged.
    """

    sender: ProcessId
    echo: bool = False
    sent_at: float = 0.0

    def wire_size_bytes(self) -> int:
        return 8


class HeartbeatFailureDetector(FailureDetector):
    """Timeout-based detector exchanging real heartbeat messages.

    Every ``interval_s`` the detector sends a heartbeat to each
    monitored peer; a peer not heard from for ``timeout_s`` is
    suspected.  With bounded simulated delays, choosing
    ``timeout_s`` above the worst-case heartbeat round delay makes the
    detector satisfy Perfect's strong accuracy, not merely eventual
    accuracy.

    The timeout is the ceiling for failures that leave no evidence (a
    hung process, a dead host, a partition).  A transport that *sees*
    a process die — its connection hung up and its host refuses the
    port — hands that in through :meth:`on_peer_refused` and the peer
    is suspected at once (DESIGN.md §5c).
    """

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        interval_s: float = 10e-3,
        timeout_s: float = 100e-3,
        trace: Optional[TraceLog] = None,
        rtt_observer: Optional[Callable[[ProcessId, float], None]] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        super().__init__()
        self.sim = sim
        self.port = port
        self.interval_s = interval_s
        self.timeout_s = timeout_s
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.telemetry = telemetry
        #: Telemetry hook: ``rtt_observer(peer, rtt_s)`` per echoed
        #: probe.  Setting it also makes this detector echo peers'
        #: probes; ``None`` (the default, and always in simulation)
        #: keeps the wire protocol exactly one heartbeat per interval.
        self._rtt_observer = rtt_observer
        self._monitored: Set[ProcessId] = set()
        self._last_heard: Dict[ProcessId, float] = {}
        self._stopped = False
        port.on_receive(self._on_heartbeat)
        self._tick_timer: Optional[TimerHandle] = sim.schedule(0.0, self._tick)

    def monitor(self, peers: Iterable[ProcessId]) -> None:
        now = self.sim.now
        new_monitored = {p for p in peers if p != self.port.node_id}
        for pid in new_monitored - self._monitored:
            # Grace period: a freshly monitored peer gets a full timeout.
            self._last_heard[pid] = now
        self._monitored = new_monitored

    def stop(self) -> None:
        """Stop sending heartbeats (the owner crashed or left)."""
        self._stopped = True
        if self._tick_timer is not None:
            self._tick_timer.cancel()
            self._tick_timer = None

    def on_peer_refused(self, pid: ProcessId) -> None:
        """Crash evidence from the transport: suspect ``pid`` now."""
        if (
            self._stopped
            or pid not in self._monitored
            or pid in self._suspected
        ):
            return
        self._report(pid, "refused")

    def _report(self, pid: ProcessId, cause: str, **detail: float) -> None:
        """Suspect ``pid``: one trace event, log line and count per peer."""
        me = self.port.node_id
        last_heard = self._last_heard.get(pid)
        self.trace.emit(
            self.sim.now, "fd", "suspect", owner=me, peer=pid, cause=cause,
            last_heard=last_heard, **detail,
        )
        logger.info(
            "node %d: suspect %d, cause=%s, silent for %.3fs",
            me, pid, cause, self.sim.now - (last_heard or 0.0),
        )
        if self.telemetry is not None:
            self.telemetry.counter("fd_suspicions").inc()
            if cause == "refused":
                self.telemetry.counter("fd_suspicions_refused").inc()
        self._suspect(pid)

    # ------------------------------------------------------------------
    def _timeout_for(self, pid: ProcessId) -> float:
        """Suspicion bound for ``pid``; subclasses adapt it per peer."""
        return self.timeout_s

    def _note_heartbeat(self, src: ProcessId, now: float) -> None:
        """Hook: called on every arrival from ``src`` (probe or echo)."""

    def _on_heartbeat(self, src: ProcessId, message: _Heartbeat) -> None:
        self._last_heard[src] = self.sim.now
        self._note_heartbeat(src, self.sim.now)
        if self._rtt_observer is None:
            return
        if message.echo:
            self._rtt_observer(src, self.sim.now - message.sent_at)
        else:
            self.port.send(
                src,
                _Heartbeat(
                    sender=self.port.node_id, echo=True, sent_at=message.sent_at
                ),
            )

    def _tick(self) -> None:
        if self._stopped:
            return
        me = self.port.node_id
        now = self.sim.now
        for pid in self._monitored:
            if pid not in self._suspected:
                self.port.send(pid, _Heartbeat(sender=me, sent_at=now))
        worst_level = 0.0
        worst_timeout = 0.0
        for pid in sorted(self._monitored):
            if pid in self._suspected:
                continue
            timeout = self._timeout_for(pid)
            silence = now - self._last_heard.get(pid, 0.0)
            worst_level = max(worst_level, silence / max(timeout, 1e-9))
            worst_timeout = max(worst_timeout, timeout)
            if silence > timeout:
                self._report(pid, "timeout", timeout_s=timeout)
        if self.telemetry is not None and self._monitored:
            self.telemetry.gauge("fd_suspicion_level").set(round(worst_level, 4))
            self.telemetry.gauge("fd_timeout_s").set(round(worst_timeout, 6))
        self._tick_timer = self.sim.schedule(self.interval_s, self._tick)


class AdaptiveFailureDetector(HeartbeatFailureDetector):
    """Heartbeat detector with a per-peer adaptive suspicion timeout.

    A fixed bound cannot win the accuracy/completeness trade-off on a
    real network: set it for the healthy case and background jitter
    triggers false-suspicion view-change storms; set it for the hostile
    case and every genuine crash costs the full pessimistic timeout.
    Following the φ-accrual idea (Hayashibara et al.), this detector
    keeps an EWMA estimate of each peer's heartbeat inter-arrival mean
    and variance and suspects only when the current silence exceeds

        ``clamp(mean + k·std, floor, ceiling)``

    - ``mean + k·std`` tracks what *this* link actually delivers, so
      sub-threshold jitter widens the bound before it can misfire;
    - ``floor`` (default :func:`adaptive_floor_s`) keeps one delayed
      probe from ever looking like a crash;
    - ``ceiling`` (the configured ``timeout_s``) preserves the
      completeness guarantee: a genuine crash is still suspected within
      the same worst-case bound as the fixed detector, because silence
      past the ceiling is suspect regardless of learned state.

    Until ``warmup_samples`` gaps have been observed for a peer, the
    ceiling applies (a freshly monitored peer gets the full grace the
    fixed detector gives).
    """

    def __init__(
        self,
        sim: Simulator,
        port: Port,
        interval_s: float = 10e-3,
        timeout_s: float = 100e-3,
        trace: Optional[TraceLog] = None,
        rtt_observer: Optional[Callable[[ProcessId, float], None]] = None,
        telemetry: Optional[Telemetry] = None,
        floor_s: Optional[float] = None,
        safety_factor: float = 4.0,
        alpha: float = 0.2,
        warmup_samples: int = 5,
    ) -> None:
        self.floor_s = (
            floor_s if floor_s is not None
            else adaptive_floor_s(interval_s, timeout_s)
        )
        self.ceiling_s = timeout_s
        self.safety_factor = safety_factor
        self.alpha = alpha
        self.warmup_samples = warmup_samples
        self._gap_mean: Dict[ProcessId, float] = {}
        self._gap_var: Dict[ProcessId, float] = {}
        self._prev_arrival: Dict[ProcessId, float] = {}
        self._gap_samples: Dict[ProcessId, int] = {}
        super().__init__(
            sim, port,
            interval_s=interval_s, timeout_s=timeout_s, trace=trace,
            rtt_observer=rtt_observer, telemetry=telemetry,
        )

    def _note_heartbeat(self, src: ProcessId, now: float) -> None:
        prev = self._prev_arrival.get(src)
        self._prev_arrival[src] = now
        if prev is None:
            return
        gap = now - prev
        if gap <= 0.0:
            return
        mean = self._gap_mean.get(src, gap)
        var = self._gap_var.get(src, 0.0)
        delta = gap - mean
        mean += self.alpha * delta
        var = (1.0 - self.alpha) * (var + self.alpha * delta * delta)
        self._gap_mean[src] = mean
        self._gap_var[src] = var
        self._gap_samples[src] = self._gap_samples.get(src, 0) + 1

    def _timeout_for(self, pid: ProcessId) -> float:
        if self._gap_samples.get(pid, 0) < self.warmup_samples:
            return self.ceiling_s
        estimate = self._gap_mean[pid] + self.safety_factor * math.sqrt(
            self._gap_var[pid]
        )
        return min(self.ceiling_s, max(self.floor_s, estimate))
