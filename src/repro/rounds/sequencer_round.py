"""Fixed sequencer in the round model (paper §2.1, Figure 1).

Senders unicast submissions to the sequencer; the sequencer broadcasts
``(m, seq)``; every process acknowledges back to the sequencer (uniform
variant).  Acks piggy-back on submissions when the acking process is
itself broadcasting (the paper's footnote 2: piggy-backing works only
when everyone broadcasts all the time); otherwise they consume a send
slot of their own — and, crucially, one of the sequencer's receive
slots, which is the bottleneck this automaton exposes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.rounds.engine import ClosedLoopProcess, DeliverCb, RoundMsgId
from repro.types import ProcessId


@dataclass(frozen=True)
class _Submit:
    msg: RoundMsgId
    acks: Tuple[int, ...] = ()  # piggy-backed ack'ed sequences


@dataclass(frozen=True)
class _SeqBcast:
    msg: RoundMsgId
    seq: int
    stable_up_to: int


@dataclass(frozen=True)
class _AckOnly:
    acks: Tuple[int, ...]


@dataclass(frozen=True)
class _StableNotice:
    """Idle-time stability announcement (nothing to piggy-back on)."""

    stable_up_to: int


class FixedSequencerRoundProcess(ClosedLoopProcess):
    """One process of the fixed-sequencer protocol in the round model."""

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        supply: int = 0,
        deliver_cb: Optional[DeliverCb] = None,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self.sequencer = members[0]
        self._pending_acks: List[int] = []
        # Sequencer state.
        self._next_seq = 1
        self._bcast_queue: Deque[_SeqBcast] = deque()
        self._ack_counts: Dict[int, int] = {}
        self._stable = 0
        self._announced_stable = 0
        # Receiver state.
        self._known: Dict[int, RoundMsgId] = {}
        self._known_stable = 0
        self._last_delivered = 0

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        if self.pid == self.sequencer:
            self._sequencer_send(round_index)
        else:
            self._sender_send(round_index)

    def _sequencer_send(self, round_index: int) -> None:
        if self.wants_own():
            # The sequencer's own broadcasts are sequenced locally.
            self._sequence(self.next_own(), round_index)
        if not self.others:
            return
        if self._bcast_queue:
            bcast = self._bcast_queue.popleft()
            self._announced_stable = max(self._announced_stable, bcast.stable_up_to)
            self.send(self.others, bcast)
        elif self._stable > self._announced_stable:
            self._announced_stable = self._stable
            self.send(self.others, _StableNotice(stable_up_to=self._stable))

    def _sender_send(self, round_index: int) -> None:
        if self.wants_own():
            acks = tuple(self._pending_acks)
            self._pending_acks = []
            self.send(self.sequencer, _Submit(msg=self.next_own(), acks=acks))
        elif self._pending_acks:
            acks = tuple(self._pending_acks)
            self._pending_acks = []
            self.send(self.sequencer, _AckOnly(acks=acks))

    # ------------------------------------------------------------------
    def receive(self, round_index: int, src: ProcessId, payload: object) -> None:
        if isinstance(payload, _Submit):
            self._note_acks(payload.acks, round_index)
            self._sequence(payload.msg, round_index)
        elif isinstance(payload, _AckOnly):
            self._note_acks(payload.acks, round_index)
        elif isinstance(payload, _SeqBcast):
            self._known[payload.seq] = payload.msg
            self._known_stable = max(self._known_stable, payload.stable_up_to)
            self._pending_acks.append(payload.seq)
            self._flush(round_index)
        elif isinstance(payload, _StableNotice):
            self._known_stable = max(self._known_stable, payload.stable_up_to)
            self._flush(round_index)
        else:
            raise ProtocolError(f"unexpected payload {payload!r}")

    def _sequence(self, mid: RoundMsgId, round_index: int) -> None:
        if self.pid != self.sequencer:
            raise ProtocolError(f"{self.pid} is not the sequencer")
        seq = self._next_seq
        self._next_seq += 1
        self._known[seq] = mid
        self._ack_counts[seq] = 1  # the sequencer itself
        self._bcast_queue.append(
            _SeqBcast(msg=mid, seq=seq, stable_up_to=self._stable)
        )

    def _note_acks(self, acks: Tuple[int, ...], round_index: int) -> None:
        for seq in acks:
            count = self._ack_counts.get(seq)
            if count is None:
                continue
            self._ack_counts[seq] = count + 1
            if self._ack_counts[seq] >= self.n:
                del self._ack_counts[seq]
        while self._stable + 1 < self._next_seq and (
            self._stable + 1
        ) not in self._ack_counts:
            self._stable += 1
        self._known_stable = max(self._known_stable, self._stable)
        self._flush(round_index)

    def _flush(self, round_index: int) -> None:
        while (
            self._last_delivered + 1 <= self._known_stable
            and self._last_delivered + 1 in self._known
        ):
            seq = self._last_delivered + 1
            self._last_delivered = seq
            self.record_delivery(self._known[seq], seq, round_index)
