"""Moving sequencer in the round model (paper §2.2, Figure 2).

Senders broadcast payloads; the token holder broadcasts sequencing
announcements that simultaneously carry the token to the next holder
(the most charitable accounting — no separate token transmission).
Even so, every process must *receive* both the payload and its
announcement, and the receive slot admits one message per round: the
protocol cannot complete more than one broadcast every two rounds,
which is exactly the paper's Figure 2 argument.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.rounds.engine import ClosedLoopProcess, DeliverCb, RoundMsgId
from repro.types import ProcessId


@dataclass(frozen=True)
class _Data:
    msg: RoundMsgId


@dataclass(frozen=True)
class _Announce:
    """Sequencing announcement; also moves the token to ``next_holder``."""

    assignments: Tuple[Tuple[int, RoundMsgId], ...]
    next_holder: ProcessId
    next_seq: int
    aru: Tuple[Tuple[ProcessId, int], ...]


class MovingSequencerRoundProcess(ClosedLoopProcess):
    """One process of the moving-sequencer protocol in the round model."""

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        supply: int = 0,
        deliver_cb: Optional[DeliverCb] = None,
        max_per_token: int = 1,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self.max_per_token = max_per_token
        self._have_token = pid == members[0]
        self._token_next_seq = 1
        self._token_aru: Dict[ProcessId, int] = {p: 0 for p in members}
        self._payloads: Set[RoundMsgId] = set()
        self._unsequenced: Deque[RoundMsgId] = deque()
        self._sequenced: Set[RoundMsgId] = set()
        self._order: Dict[int, RoundMsgId] = {}
        self._my_contiguous = 0
        self._stable = 0
        self._last_delivered = 0

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        if self._have_token and self._unsequenced:
            self._announce(round_index)
            return
        if self.wants_own():
            mid = self.next_own()
            self._note_data(mid, round_index)
            if self.others:
                self.send(self.others, _Data(msg=mid))

    def _announce(self, round_index: int) -> None:
        assignments: List[Tuple[int, RoundMsgId]] = []
        while self._unsequenced and len(assignments) < self.max_per_token:
            mid = self._unsequenced.popleft()
            if mid in self._sequenced:
                continue
            assignments.append((self._token_next_seq, mid))
            self._note_assignment(self._token_next_seq, mid, round_index)
            self._token_next_seq += 1
        self._refresh_contiguous()
        self._token_aru[self.pid] = self._my_contiguous
        next_holder = self.members[(self.members.index(self.pid) + 1) % self.n]
        announce = _Announce(
            assignments=tuple(assignments),
            next_holder=next_holder,
            next_seq=self._token_next_seq,
            aru=tuple(sorted(self._token_aru.items())),
        )
        self._have_token = next_holder == self.pid
        self._note_stability(round_index)
        if self.others:
            self.send(self.others, announce)

    # ------------------------------------------------------------------
    def receive(self, round_index: int, src: ProcessId, payload: object) -> None:
        if isinstance(payload, _Data):
            self._note_data(payload.msg, round_index)
        elif isinstance(payload, _Announce):
            for seq, mid in payload.assignments:
                self._note_assignment(seq, mid, round_index)
            for pid, mark in payload.aru:
                self._token_aru[pid] = max(self._token_aru[pid], mark)
            if payload.next_holder == self.pid:
                self._have_token = True
                self._token_next_seq = max(self._token_next_seq, payload.next_seq)
            self._refresh_contiguous()
            self._token_aru[self.pid] = self._my_contiguous
            self._note_stability(round_index)
        else:
            raise ProtocolError(f"unexpected payload {payload!r}")

    # ------------------------------------------------------------------
    def _note_data(self, mid: RoundMsgId, round_index: int) -> None:
        if mid in self._payloads:
            return
        self._payloads.add(mid)
        if mid not in self._sequenced:
            self._unsequenced.append(mid)
        self._refresh_contiguous()
        self._flush(round_index)

    def _note_assignment(self, seq: int, mid: RoundMsgId, round_index: int) -> None:
        existing = self._order.get(seq)
        if existing is not None and existing != mid:
            raise ProtocolError(f"round-model seq {seq} double-assigned")
        self._order[seq] = mid
        self._sequenced.add(mid)
        self._refresh_contiguous()
        self._flush(round_index)

    def _refresh_contiguous(self) -> None:
        while (
            self._my_contiguous + 1 in self._order
            and self._order[self._my_contiguous + 1] in self._payloads
        ):
            self._my_contiguous += 1

    def _note_stability(self, round_index: int) -> None:
        stable = min(self._token_aru.values())
        if stable > self._stable:
            self._stable = stable
        self._flush(round_index)

    def _flush(self, round_index: int) -> None:
        while (
            self._last_delivered + 1 <= self._stable
            and self._last_delivered + 1 in self._order
            and self._order[self._last_delivered + 1] in self._payloads
        ):
            seq = self._last_delivered + 1
            self._last_delivered = seq
            self.record_delivery(self._order[seq], seq, round_index)
