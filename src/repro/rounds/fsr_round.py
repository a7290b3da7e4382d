"""FSR in the round-based model (validates paper §4.3).

The automaton is the real one: an :class:`FSRRoundProcess` hosts the
:class:`~repro.core.fsr.process.FSRProcess` the simulator and the
sockets run, over static membership, and *is* its network port, its TX
gate and its clock.  The round model's cost accounting — one send slot
per round, one receive per round — is all the host adds:

* the gate opens in :meth:`~FSRRoundProcess.begin_round` and shuts at
  the round's first send, so the automaton's own pump decides what the
  slot carries (a data message with the pending acks riding on it, or a
  standalone ack batch when there is no carrier);
* a frame is handed to ``on_message`` with the gate shut, so whatever it
  queues waits for the next round;
* the closed-loop sender offers at most one broadcast per round, and
  only when the previous one has left the own queue — the fairness rule
  then sees one pending own message, as the paper's Figure 5 draws it;
* the clock stands still and refuses timers: the round index is the
  only time there is.

The two §4.3 claims validated on it (``tests/rounds/test_fsr_round.py``
and the round-model benchmark): single-broadcast latency is exactly
``L(i) = 2n + t - i - 1`` rounds (``n + t - 1`` for the leader), and
steady-state throughput is one completed TO-broadcast per round,
independent of ``n``, ``t`` and the number of senders ``k``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core.fsr.config import FSRConfig
from repro.core.fsr.process import FSRProcess
from repro.core.fsr.ring import Ring
from repro.errors import SimulationError
from repro.failure.detector import StaticDetector
from repro.net.dispatch import SilentPort
from repro.rounds.engine import ClosedLoopProcess, DeliverCb
from repro.types import Delivery, ProcessId
from repro.vsc.membership import GroupMembership


def fsr_latency_formula(n: int, t: int, position: int) -> int:
    """Paper formula ``L(i) = 2n + t - i - 1`` (leader: ``n + t - 1``),
    with ``t`` clamped to ``n - 1`` as every view clamps it."""
    ring = Ring(members=tuple(range(n)), t=FSRConfig(t=t).effective_t(n))
    return ring.latency_rounds(position)


class FSRRoundProcess(ClosedLoopProcess):
    """One :class:`FSRProcess` under the round model's send/receive slots."""

    #: ``Scheduler.now``: the clock stands still.
    now = 0.0

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        t: int,
        supply: Optional[int] = 0,
        deliver_cb: Optional[DeliverCb] = None,
        fairness: bool = True,
        window: Optional[int] = None,
        piggyback: bool = True,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self.node_id = pid  # ``Port.node_id``
        self._gate_open = False
        self._round = 0
        membership = GroupMembership(
            self, SilentPort(pid), StaticDetector(), me=pid,
            initial_members=tuple(members),
        )
        self.process = FSRProcess(
            self, self, membership,
            FSRConfig(t=t, fairness=fairness, piggyback_acks=piggyback),
            tx_gate=lambda: self._gate_open,
        )
        self.process.on_protocol_deliver(self._on_deliver)
        self.process.start()

    # -- Scheduler and Port, as the automaton sees them -------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any):
        raise SimulationError("the round model has no timers")

    def on_receive(self, handler: Callable[[ProcessId, Any], None]) -> None:
        self._on_message = handler

    def send(self, dst: ProcessId, message: Any, size_bytes: Optional[int] = None) -> None:
        """``Port.send``: spend the round's one send slot, shut the gate."""
        self._gate_open = False
        super().send(dst, message)

    # -- RoundProcess -----------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        self._round = round_index
        self._gate_open = True
        if self.wants_own() and not self.process.pending_own:
            self.next_own()
            self.process.broadcast(None, size_bytes=0)
        self.process.on_tx_ready()
        self._gate_open = False

    def receive(self, round_index: int, src: ProcessId, payload: Any) -> None:
        self._round = round_index
        self._on_message(src, payload)

    def _on_deliver(self, delivery: Delivery) -> None:
        self.record_delivery(delivery.message_id, delivery.sequence, self._round)
