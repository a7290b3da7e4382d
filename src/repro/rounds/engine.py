"""Lock-step engine for the paper's modified round model.

Execution of one round:

1. every process's :meth:`RoundProcess.begin_round` runs (in process-id
   order, but processes cannot observe each other within a round) and
   may call :meth:`RoundProcess.send` **once** — with one or many
   destinations (a best-effort broadcast costs one send slot);
2. every message sent in round ``r`` is appended to each destination's
   network queue (switch buffer);
3. every process receives **exactly one** queued message (FIFO;
   same-round arrivals are ordered by sender id) via
   :meth:`RoundProcess.receive`.

Everything is deterministic, so round counts are exact and the paper's
formulas can be asserted as equalities.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.types import ProcessId

#: Message identity in the round model: (origin, per-origin counter).
RoundMsgId = Tuple[ProcessId, int]

#: Delivery observer: (pid, message id, sequence, round index).
DeliverCb = Callable[[ProcessId, RoundMsgId, int, int], None]


@dataclass(frozen=True)
class RoundMessage:
    """One message in the round model."""

    src: ProcessId
    payload: Any
    sent_round: int


class RoundProcess(ABC):
    """A protocol automaton living in the round model."""

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self._engine: Optional["RoundEngine"] = None
        self._sent_this_round = False

    # Called by the engine -----------------------------------------------
    def _attach(self, engine: "RoundEngine") -> None:
        self._engine = engine

    @abstractmethod
    def begin_round(self, round_index: int) -> None:
        """Compute and (optionally) send this round's message."""

    @abstractmethod
    def receive(self, round_index: int, src: ProcessId, payload: Any) -> None:
        """Handle the (single) message received this round."""

    # Called by the automaton --------------------------------------------
    def send(self, destinations: Union[ProcessId, Iterable[ProcessId]], payload: Any) -> None:
        """Use this round's one send slot (unicast or broadcast)."""
        if self._engine is None:
            raise SimulationError("process is not attached to an engine")
        if self._sent_this_round:
            raise SimulationError(
                f"process {self.pid} tried to send twice in round "
                f"{self._engine.round_index}"
            )
        self._sent_this_round = True
        if isinstance(destinations, int):
            destinations = [destinations]
        self._engine._submit(self.pid, list(destinations), payload)


class ClosedLoopProcess(RoundProcess):
    """A round automaton driven by the measurement drivers' sender.

    ``supply`` is how many messages this process still wants to
    TO-broadcast (``None`` = saturating sender) and ``window`` caps its
    own broadcasts in flight, sent but not yet locally delivered
    (``None`` = no cap).  A protocol asks :meth:`wants_own`, draws the
    id of its next broadcast with :meth:`next_own`, and reports every
    TO-delivery through :meth:`record_delivery`, which feeds
    ``delivered`` and the drivers' ``deliver_cb``.
    """

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        supply: Optional[int] = 0,
        deliver_cb: Optional[DeliverCb] = None,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid)
        self.members = members
        self.n = len(members)
        self.others = [p for p in members if p != pid]
        self.supply = supply
        self.deliver_cb = deliver_cb
        self.window = window
        self._own_counter = 0
        self._own_delivered = 0
        self.delivered: List[RoundMsgId] = []

    def wants_own(self) -> bool:
        if self.supply is not None and self.supply <= 0:
            return False
        return (
            self.window is None
            or self._own_counter - self._own_delivered < self.window
        )

    def next_own(self) -> RoundMsgId:
        """Take one message from the supply; returns its id."""
        self._own_counter += 1
        if self.supply is not None:
            self.supply -= 1
        return (self.pid, self._own_counter)

    def record_delivery(self, mid: RoundMsgId, seq: int, round_index: int) -> None:
        self.delivered.append(mid)
        if mid[0] == self.pid:
            self._own_delivered += 1
        if self.deliver_cb is not None:
            self.deliver_cb(self.pid, mid, seq, round_index)


class RoundEngine:
    """Drives a set of :class:`RoundProcess` automata in lock step."""

    def __init__(self) -> None:
        self.processes: Dict[ProcessId, RoundProcess] = {}
        self._queues: Dict[ProcessId, Deque[RoundMessage]] = {}
        self._staged: List[RoundMessage] = []
        self._staged_dests: List[List[ProcessId]] = []
        self.round_index = 0
        #: Peak network-queue depth per process (backlog diagnostics).
        self.max_queue_depth: Dict[ProcessId, int] = {}

    def attach(self, process: RoundProcess) -> None:
        if process.pid in self.processes:
            raise SimulationError(f"process {process.pid} already attached")
        self.processes[process.pid] = process
        self._queues[process.pid] = deque()
        self.max_queue_depth[process.pid] = 0
        process._attach(self)

    def _submit(self, src: ProcessId, dests: List[ProcessId], payload: Any) -> None:
        message = RoundMessage(src=src, payload=payload, sent_round=self.round_index)
        self._staged.append(message)
        self._staged_dests.append(dests)

    def run_round(self) -> None:
        """Execute one full round."""
        pids = sorted(self.processes)
        for pid in pids:
            process = self.processes[pid]
            process._sent_this_round = False
            process.begin_round(self.round_index)
        # Stage 2: same-round arrivals enter queues, ordered by sender.
        order = sorted(
            range(len(self._staged)), key=lambda i: self._staged[i].src
        )
        for i in order:
            message = self._staged[i]
            for dst in self._staged_dests[i]:
                if dst not in self._queues:
                    raise SimulationError(f"unknown destination {dst}")
                self._queues[dst].append(message)
        self._staged = []
        self._staged_dests = []
        # Stage 3: one receive per process.
        for pid in pids:
            queue = self._queues[pid]
            self.max_queue_depth[pid] = max(self.max_queue_depth[pid], len(queue))
            if queue:
                message = queue.popleft()
                self.processes[pid].receive(
                    self.round_index, message.src, message.payload
                )
        self.round_index += 1

    def run_rounds(self, count: int) -> None:
        for _ in range(count):
            self.run_round()

    def run_until(self, predicate: Callable[[], bool], max_rounds: int = 100_000) -> int:
        """Run until ``predicate()`` holds; returns the round count."""
        start = self.round_index
        while not predicate():
            if self.round_index - start >= max_rounds:
                raise SimulationError(
                    f"predicate still false after {max_rounds} rounds"
                )
            self.run_round()
        return self.round_index - start
