"""Shared plumbing for the baseline protocols.

Every baseline extends :class:`BaselineProcess`, which provides the
:class:`~repro.core.api.TotalOrderBroadcast` surface, message identity
allocation, delivery bookkeeping (including the protocol-level delivery
hook the harness and checkers rely on), and a best-effort broadcast
helper (``n - 1`` unicasts — the simulated switched LAN has no native
multicast, matching the paper's point-to-point model).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.api import BroadcastListener, TotalOrderBroadcast
from repro.core.fsr.process import ProtocolDeliverCallback
from repro.errors import ProtocolError
from repro.net.dispatch import Port
from repro.sim.trace import TraceLog
from repro.types import Delivery, MessageId, ProcessId, Scheduler, SequenceNumber


class BaselineProcess(TotalOrderBroadcast):
    """Common state machine scaffolding for baseline protocols."""

    def __init__(
        self,
        sim: Scheduler,
        port: Port,
        members: Tuple[ProcessId, ...],
        trace: Optional[TraceLog] = None,
        cpu_submit: Optional[Callable[[int, Callable[[], None]], Any]] = None,
    ) -> None:
        if port.node_id not in members:
            raise ProtocolError(
                f"process {port.node_id} is not a member of {members}"
            )
        self.sim = sim
        self.port = port
        self.members = members
        self.me: ProcessId = port.node_id
        self.n = len(members)
        self.trace = trace if trace is not None else TraceLog(enabled=False)

        self._listener = BroadcastListener()
        self._protocol_deliver_cb: Optional[ProtocolDeliverCallback] = None
        self._cpu_submit = cpu_submit
        self._local_counter = 0
        self._started = False
        self._stopped = False
        self.stats_broadcasts = 0
        self.stats_deliveries = 0

        port.on_receive(self._dispatch)

    # ------------------------------------------------------------------
    # TotalOrderBroadcast surface
    # ------------------------------------------------------------------
    def set_listener(self, listener: BroadcastListener) -> None:
        self._listener = listener

    def on_protocol_deliver(self, callback: ProtocolDeliverCallback) -> None:
        self._protocol_deliver_cb = callback

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.on_start()

    def stop(self) -> None:
        self._stopped = True

    # Subclass hooks -----------------------------------------------------
    def on_start(self) -> None:
        """Protocol-specific start-up (timers, token creation)."""

    def on_message(self, src: ProcessId, message: Any) -> None:
        """Protocol-specific message handling."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def _dispatch(self, src: ProcessId, message: Any) -> None:
        if self._stopped:
            return
        self.on_message(src, message)

    def next_message_id(self) -> MessageId:
        self._local_counter += 1
        return MessageId(origin=self.me, local_seq=self._local_counter)

    def others(self) -> List[ProcessId]:
        """All members except this process."""
        return [pid for pid in self.members if pid != self.me]

    def send(self, dst: ProcessId, message: Any) -> None:
        """Unicast; a self-send is delivered as a local async event."""
        if dst == self.me:
            self.sim.schedule(0.0, self._dispatch, self.me, message)
        else:
            self.port.send(dst, message)

    def best_effort_broadcast(self, message: Any) -> None:
        """Send ``message`` to every other member (n-1 unicasts)."""
        for dst in self.others():
            self.port.send(dst, message)

    def charge_cpu(self, size_bytes: int, action: Callable[[], None]) -> None:
        """Charge origin-side marshalling CPU, then run ``action``.

        Every received message costs one CPU pass at its receiver; this
        makes a process's *own* broadcasts cost the same at the origin,
        so all protocols face an identical per-node software budget.
        """
        if self._cpu_submit is None:
            action()
            return

        def guarded() -> None:
            if not self._stopped:
                action()

        self._cpu_submit(size_bytes, guarded)

    def deliver(
        self,
        origin: ProcessId,
        message_id: MessageId,
        payload: Any,
        size_bytes: int,
        sequence: SequenceNumber,
    ) -> None:
        """Record and announce one TO-delivery."""
        self.stats_deliveries += 1
        if self._protocol_deliver_cb is not None:
            self._protocol_deliver_cb(
                Delivery(
                    process=self.me,
                    message_id=message_id,
                    sequence=sequence,
                    time=self.sim.now,
                    size_bytes=size_bytes,
                )
            )
        self._listener.deliver(origin, message_id, payload, size_bytes)

    def require_payload_size(
        self, payload: Any, size_bytes: Optional[int]
    ) -> int:
        if size_bytes is not None:
            return size_bytes
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        raise ProtocolError("size_bytes is required for non-bytes payloads")
