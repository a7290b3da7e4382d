"""Communication-history total order broadcast (paper §2.4).

Sender-ordered, Lamport-clock based (in the style of Lamport's state
machine / Newtop): every process broadcasts its messages stamped with a
logical clock; a message is delivered once a higher timestamp has been
observed from *every* other process, which — with FIFO channels —
guarantees nothing earlier can still arrive.  Idle processes emit tiny
null messages so the clock front keeps advancing.

The paper's criticism this baseline reproduces: every broadcast costs a
quadratic number of messages across the system (each of the ``n``
processes transmits each of its messages to ``n - 1`` peers, and null
traffic fills every idle lane), so NIC receive capacity saturates far
below FSR's throughput.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.protocols.base import BaselineProcess
from repro.protocols.registry import ProtocolContext, register_protocol
from repro.types import MessageId, ProcessId, SequenceNumber

_HEADER = 32
_NULL_SIZE = 16


@dataclass(frozen=True)
class CommunicationHistoryConfig:
    """Tuning knobs for the communication-history baseline."""

    #: Period of null (clock advancement) messages while idle.
    null_period_s: float = 1e-3


@dataclass
class _ChData:
    message_id: MessageId
    payload: Any
    payload_size: int
    timestamp: int

    def wire_size_bytes(self) -> int:
        return _HEADER + self.payload_size


@dataclass
class _ChNull:
    timestamp: int

    def wire_size_bytes(self) -> int:
        return _NULL_SIZE


class CommunicationHistoryProcess(BaselineProcess):
    """One endpoint of the communication-history protocol."""

    def __init__(self, context: ProtocolContext) -> None:
        super().__init__(
            context.sim,
            context.port,
            context.members,
            context.trace,
            cpu_submit=context.cpu_submit,
        )
        config = context.config or CommunicationHistoryConfig()
        if not isinstance(config, CommunicationHistoryConfig):
            raise ProtocolError(
                "communication_history expects CommunicationHistoryConfig, "
                f"got {type(config).__name__}"
            )
        self.config = config

        self._clock = 0
        #: Latest timestamp observed per peer (self included).
        self._latest: Dict[ProcessId, int] = {pid: 0 for pid in self.members}
        #: Min-heap of pending messages keyed by (timestamp, origin).
        self._pending: List[Tuple[int, ProcessId, MessageId]] = []
        self._payloads: Dict[MessageId, _ChData] = {}
        self._delivery_index = 0
        #: Data broadcast since the last null tick (a null would be redundant).
        self._sent_data = False

    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self._schedule_null()

    def broadcast(self, payload: Any, size_bytes: Optional[int] = None) -> MessageId:
        size = self.require_payload_size(payload, size_bytes)
        self.stats_broadcasts += 1
        message_id = self.next_message_id()

        def emit() -> None:
            # The timestamp is taken when the message actually leaves,
            # preserving the Lamport-order/FIFO compatibility argument.
            self._clock += 1
            data = _ChData(
                message_id=message_id,
                payload=payload,
                payload_size=size,
                timestamp=self._clock,
            )
            self._latest[self.me] = self._clock
            self._sent_data = True
            self._enqueue(data)
            self.best_effort_broadcast(data)
            self._try_deliver()

        self.charge_cpu(size, emit)
        return message_id

    # ------------------------------------------------------------------
    def on_message(self, src: ProcessId, message: Any) -> None:
        if isinstance(message, _ChData):
            self._clock = max(self._clock, message.timestamp)
            self._latest[src] = max(self._latest[src], message.timestamp)
            self._enqueue(message)
        elif isinstance(message, _ChNull):
            self._clock = max(self._clock, message.timestamp)
            self._latest[src] = max(self._latest[src], message.timestamp)
        else:
            raise ProtocolError(f"unexpected message {message!r}")
        self._try_deliver()

    def _enqueue(self, data: _ChData) -> None:
        if data.message_id in self._payloads:
            return
        self._payloads[data.message_id] = data
        heapq.heappush(
            self._pending,
            (data.timestamp, data.message_id.origin, data.message_id),
        )

    # ------------------------------------------------------------------
    def _schedule_null(self) -> None:
        if self._stopped:
            return
        # Only send a null if the peers have not heard from us lately;
        # data traffic already advances our clock front.
        if not self._sent_data:
            self._clock += 1
            self._latest[self.me] = self._clock
            self.best_effort_broadcast(_ChNull(timestamp=self._clock))
            self._try_deliver()
        self._sent_data = False
        self.sim.schedule(self.config.null_period_s, self._schedule_null)

    def _try_deliver(self) -> None:
        while self._pending:
            timestamp, origin, message_id = self._pending[0]
            # Deliverable once every process is known to be past it.
            front = min(
                self._latest[pid] for pid in self.members if pid != origin
            )
            if front <= timestamp:
                return
            heapq.heappop(self._pending)
            data = self._payloads.pop(message_id)
            self._delivery_index += 1
            self.deliver(
                origin=origin,
                message_id=message_id,
                payload=data.payload,
                size_bytes=data.payload_size,
                sequence=self._delivery_index,
            )


def _build(context: ProtocolContext):
    return CommunicationHistoryProcess(context)


register_protocol("communication_history", _build)
