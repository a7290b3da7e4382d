"""Destination agreement in the round model (paper §2.5).

Batched consensus with a rotating coordinator: payload broadcasts,
then propose / vote / decide waves per batch.  Each batch costs the
coordinator roughly ``n`` receive rounds (one vote per round), which is
the message-complexity tax the paper attributes to this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.rounds.engine import ClosedLoopProcess, DeliverCb, RoundMsgId
from repro.types import ProcessId


@dataclass(frozen=True)
class _Data:
    msg: RoundMsgId


@dataclass(frozen=True)
class _Propose:
    instance: int
    batch: Tuple[RoundMsgId, ...]


@dataclass(frozen=True)
class _Vote:
    instance: int


@dataclass(frozen=True)
class _Decide:
    instance: int
    batch: Tuple[RoundMsgId, ...]


class DestinationAgreementRoundProcess(ClosedLoopProcess):
    """One process of the destination-agreement protocol."""

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        supply: int = 0,
        deliver_cb: Optional[DeliverCb] = None,
        max_batch: int = 8,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self.max_batch = max_batch
        self._payloads: Set[RoundMsgId] = set()
        self._ordered: Set[RoundMsgId] = set()
        self._decisions: Dict[int, Tuple[RoundMsgId, ...]] = {}
        self._next_instance = 1
        self._proposing: Optional[int] = None
        self._votes: Set[ProcessId] = set()
        self._proposed: Tuple[RoundMsgId, ...] = ()
        self._outbox: List[object] = []  # control messages to send
        self._sequence = 0

    def coordinator_of(self, instance: int) -> ProcessId:
        return self.members[(instance - 1) % self.n]

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        if self._outbox:
            dests, payload = self._outbox.pop(0)
            self.send(dests, payload)
            return
        if self.wants_own():
            mid = self.next_own()
            self._payloads.add(mid)
            if self.others:
                self.send(self.others, _Data(msg=mid))
            self._maybe_propose()

    def receive(self, round_index: int, src: ProcessId, payload: object) -> None:
        if isinstance(payload, _Data):
            self._payloads.add(payload.msg)
            self._maybe_propose()
        elif isinstance(payload, _Propose):
            if payload.instance >= self._next_instance:
                self._outbox.append((
                    [src], _Vote(instance=payload.instance)
                ))
        elif isinstance(payload, _Vote):
            if self._proposing == payload.instance:
                self._votes.add(src)
                self._maybe_decide(round_index)
        elif isinstance(payload, _Decide):
            if payload.instance >= self._next_instance:
                self._decisions.setdefault(payload.instance, payload.batch)
                self._flush(round_index)
        else:
            raise ProtocolError(f"unexpected payload {payload!r}")

    # ------------------------------------------------------------------
    def _maybe_propose(self) -> None:
        instance = self._next_instance
        if self.coordinator_of(instance) != self.pid or self._proposing is not None:
            return
        pending = sorted(self._payloads - self._ordered)[: self.max_batch]
        if not pending:
            return
        self._proposing = instance
        self._proposed = tuple(pending)
        self._votes = {self.pid}
        if self.others:
            self._outbox.append(
                (self.others, _Propose(instance=instance, batch=self._proposed))
            )
        else:
            self._decisions.setdefault(instance, self._proposed)

    def _maybe_decide(self, round_index: int) -> None:
        if self._proposing is None or len(self._votes) < self.n:
            return
        instance = self._proposing
        batch = self._proposed
        self._proposing = None
        self._proposed = ()
        self._votes = set()
        if self.others:
            self._outbox.append((self.others, _Decide(instance=instance, batch=batch)))
        self._decisions.setdefault(instance, batch)
        self._flush(round_index)

    def _flush(self, round_index: int) -> None:
        while self._next_instance in self._decisions:
            batch = self._decisions[self._next_instance]
            if any(mid not in self._payloads for mid in batch):
                return
            del self._decisions[self._next_instance]
            self._next_instance += 1
            for mid in batch:
                if mid in self._ordered:
                    continue
                self._ordered.add(mid)
                self._sequence += 1
                self.record_delivery(mid, self._sequence, round_index)
            self._maybe_propose()
