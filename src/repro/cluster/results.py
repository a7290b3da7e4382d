"""Experiment result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.api import DeliveryLog
from repro.net.network import NicStats
from repro.obs.span import SpanLog
from repro.sim.trace import TraceLog
from repro.types import BroadcastRecord, MessageId, ProcessId, SimTime


@dataclass
class AppDelivery:
    """One application-level (reassembled) delivery at one process."""

    process: ProcessId
    origin: ProcessId
    message_id: MessageId
    size_bytes: int
    time: SimTime


@dataclass
class ExperimentResult:
    """Everything a finished run leaves behind.

    The metrics collector (:mod:`repro.metrics`) and the correctness
    checkers (:mod:`repro.checker`) both consume this container; no
    subsystem reaches back into live cluster objects after a run.
    """

    #: Copy of the configuration that produced this result.
    config: Any
    #: Final simulated time.
    duration_s: SimTime
    #: Per-process protocol-level delivery logs (segments, sequences).
    delivery_logs: Dict[ProcessId, DeliveryLog]
    #: Per-process application-level deliveries (reassembled messages).
    app_deliveries: Dict[ProcessId, List[AppDelivery]]
    #: Every TO-broadcast submitted, in submission order.
    broadcasts: List[BroadcastRecord]
    #: Which process submitted each broadcast.
    broadcast_origin: Dict[MessageId, ProcessId]
    #: Processes crashed during the run and when.
    crashed: Dict[ProcessId, SimTime]
    #: Per-process NIC/CPU accounting.
    nic_stats: Dict[ProcessId, NicStats]
    #: Structured trace (empty unless the config enabled tracing).
    trace: TraceLog = field(default_factory=lambda: TraceLog(enabled=False))
    #: Lifecycle spans (empty unless the config enabled spans).
    spans: SpanLog = field(default_factory=lambda: SpanLog(enabled=False))
    #: Lazy completion-time index; see :meth:`completion_times`.
    _completion_cache: Optional[Dict[MessageId, SimTime]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def correct_processes(self) -> Set[ProcessId]:
        """Processes that never crashed."""
        return set(self.delivery_logs) - set(self.crashed)

    def total_delivered_bytes(self) -> int:
        """Application bytes delivered, summed over processes."""
        return sum(
            delivery.size_bytes
            for deliveries in self.app_deliveries.values()
            for delivery in deliveries
        )

    def app_delivery_times(
        self, message_id: MessageId
    ) -> List[Tuple[ProcessId, SimTime]]:
        """Where and when one application message was delivered."""
        out: List[Tuple[ProcessId, SimTime]] = []
        for process, deliveries in self.app_deliveries.items():
            for delivery in deliveries:
                if delivery.message_id == message_id:
                    out.append((process, delivery.time))
        return out

    def completion_times(self) -> Dict[MessageId, SimTime]:
        """Completion time of every fully-delivered application message.

        A message completes when the *last* correct process delivers it
        (the paper's Section 5.1 measurement protocol); messages some
        correct process never delivered are absent.  Built in one pass
        over the delivery logs and cached — benchmark runs query tens
        of thousands of completions, and the per-call scan was
        quadratic in run length.
        """
        if self._completion_cache is None:
            per_process: List[Dict[MessageId, SimTime]] = []
            for process in self.correct_processes():
                first: Dict[MessageId, SimTime] = {}
                for delivery in self.app_deliveries[process]:
                    if delivery.message_id not in first:
                        first[delivery.message_id] = delivery.time
                per_process.append(first)
            cache: Dict[MessageId, SimTime] = {}
            if per_process:
                everywhere = set(per_process[0]).intersection(
                    *(set(first) for first in per_process[1:])
                )
                for message_id in everywhere:
                    cache[message_id] = max(
                        first[message_id] for first in per_process
                    )
            self._completion_cache = cache
        return self._completion_cache

    def completion_time(self, message_id: MessageId) -> Optional[SimTime]:
        """Time the *last* correct process delivered ``message_id``.

        Returns ``None`` if some correct process never delivered it.
        """
        return self.completion_times().get(message_id)
