"""The round host: any registered protocol under the round model's slots.

A :class:`RoundHost` builds the protocol the simulator and the sockets
run — through :func:`~repro.protocols.registry.build_protocol`, over
static membership — and *is* its network port, its clock, its TX gate
and its TX-idle hook.  The protocol is one per-process state machine;
the round structure is only the scheduler around it.  The round model's
cost accounting — one send slot per round, one receive per round — is
all the host adds:

* **one send slot.**  Consecutive ``Port.send`` calls with the same
  message object form one slot, so a best-effort broadcast (``n - 1``
  unicasts of one object) costs one slot, as the model charges it.
  Each round sends the head of a FIFO of slots; later slots wait for
  later rounds;
* **timers.**  A positive delay fires at the start of the next round
  (round 1 for a timer armed while the protocol starts); a zero delay
  fires in the same round, after the handler that armed it;
* **the gate and own broadcasts.**  The gate is open only inside
  :meth:`~RoundHost.begin_round`, while the FIFO is empty and until the
  first send, so FSR's own pump decides what the slot carries (a data
  message with the pending acks riding on it, or a standalone ack batch
  when there is no carrier).  The closed-loop sender offers a broadcast
  only when the FIFO is empty and FSR's own queue is too — the fairness
  rule then sees one pending own message, as the paper's Figure 5
  draws it;
* **the clock stands still**: the round index is the only time there is.

The two §4.3 claims validated on FSR (``tests/rounds/test_fsr_round.py``
and the round-model cases): single-broadcast latency is exactly
``L(i) = 2n + t - i - 1`` rounds (``n + t - 1`` for the leader), and
steady-state throughput is one completed TO-broadcast per round,
independent of ``n``, ``t`` and the number of senders ``k``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.core.fsr.config import FSRConfig
from repro.core.fsr.ring import Ring
from repro.failure.detector import StaticDetector
from repro.net.dispatch import SilentPort
from repro.protocols.registry import ProtocolContext, build_protocol
from repro.rounds.engine import ClosedLoopProcess, DeliverCb, RoundProcess
from repro.sim.trace import TraceLog
from repro.types import Delivery, ProcessId, TimerHandle
from repro.vsc.membership import GroupMembership

#: (round due, handle, callback, args)
_Timer = Tuple[int, TimerHandle, Callable[..., None], tuple]


def fsr_latency_formula(n: int, t: int, position: int) -> int:
    """Paper formula ``L(i) = 2n + t - i - 1`` (leader: ``n + t - 1``),
    with ``t`` clamped to ``n - 1`` as every view clamps it."""
    ring = Ring(members=tuple(range(n)), t=FSRConfig(t=t).effective_t(n))
    return ring.latency_rounds(position)


class RoundHost(ClosedLoopProcess):
    """One registered protocol endpoint under the round model."""

    #: ``Scheduler.now``: the clock stands still.
    now = 0.0

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        protocol: str,
        config: Any = None,
        supply: Optional[int] = 0,
        deliver_cb: Optional[DeliverCb] = None,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self.node_id = pid  # ``Port.node_id``
        self._gate_open = False
        self._round = 0
        #: Send slots not yet on the wire: (destinations, message).
        self._slots: Deque[Tuple[List[ProcessId], Any]] = deque()
        self._timers: List[_Timer] = []
        self._tx_idle: List[Callable[[], None]] = []
        membership = GroupMembership(
            self, SilentPort(pid), StaticDetector(), me=pid,
            initial_members=tuple(members),
        )
        self.process = build_protocol(protocol, ProtocolContext(
            sim=self, node_id=pid, port=self, membership=membership,
            members=tuple(members), config=config,
            trace=TraceLog(enabled=False),
            tx_gate=lambda: self._gate_open,
            on_tx_idle=self._tx_idle.append,
        ))
        self.process.on_protocol_deliver(self._on_deliver)
        self.process.start()

    # -- Scheduler and Port, as the protocol sees them --------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> TimerHandle:
        handle = TimerHandle(sequence=0)
        due = self._round + 1 if delay > 0 else self._round
        self._timers.append((due, handle, callback, args))
        return handle

    def on_receive(self, handler: Callable[[ProcessId, Any], None]) -> None:
        self._on_message = handler

    def send(self, dst: ProcessId, message: Any, size_bytes: Optional[int] = None) -> None:
        """``Port.send``: join the open slot or queue a new one."""
        self._gate_open = False
        if self._slots and self._slots[-1][1] is message:
            self._slots[-1][0].append(dst)
        else:
            self._slots.append(([dst], message))

    # -- RoundProcess -----------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        self._round = round_index
        self._gate_open = not self._slots
        self._fire_due()
        if (
            not self._slots
            and self.wants_own()
            and not getattr(self.process, "pending_own", 0)
        ):
            self.next_own()
            self.process.broadcast(None, size_bytes=0)
        for callback in self._tx_idle:
            callback()
        self._gate_open = False
        self._fire_due()
        if self._slots:
            RoundProcess.send(self, *self._slots.popleft())

    def receive(self, round_index: int, src: ProcessId, payload: Any) -> None:
        self._round = round_index
        self._on_message(src, payload)
        self._fire_due()

    def _fire_due(self) -> None:
        """Run every timer due by this round, and those they arm for it."""
        while True:
            due = [timer for timer in self._timers if timer[0] <= self._round]
            if not due:
                return
            self._timers = [timer for timer in self._timers if timer[0] > self._round]
            for _due, handle, callback, args in due:
                if not handle.cancelled:
                    callback(*args)

    def _on_deliver(self, delivery: Delivery) -> None:
        self.record_delivery(delivery.message_id, delivery.sequence, self._round)
