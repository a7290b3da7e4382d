"""Privilege-based protocol in the round model (paper §2.3, Figure 3).

Only the token holder broadcasts.  The holder sends up to
``max_per_token`` of its own pending messages (one broadcast per
round), then passes the token — a unicast that still occupies a full
round of the successor's receive slot.  This automaton reproduces the
paper's fairness/throughput trade-off: with ``k`` senders spread around
the ring, every ``max_per_token`` deliveries cost extra token-passing
rounds, so throughput falls below 1 exactly in the ``k``-to-``n``
patterns the paper calls out (and fairness collapses instead if
``max_per_token`` is made large).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ProtocolError
from repro.rounds.engine import ClosedLoopProcess, DeliverCb, RoundMsgId
from repro.types import ProcessId


@dataclass(frozen=True)
class _Data:
    msg: RoundMsgId
    seq: int
    stable_up_to: int


@dataclass(frozen=True)
class _Token:
    next_seq: int
    aru: Tuple[Tuple[ProcessId, int], ...]


class PrivilegeRoundProcess(ClosedLoopProcess):
    """One process of the privilege protocol in the round model."""

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        supply: int = 0,
        deliver_cb: Optional[DeliverCb] = None,
        max_per_token: int = 4,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self.max_per_token = max_per_token
        self._have_token = pid == members[0]
        self._sent_this_visit = 0
        self._token_next_seq = 1
        self._token_aru: Dict[ProcessId, int] = {p: 0 for p in members}
        self._received: Dict[int, RoundMsgId] = {}
        self._my_contiguous = 0
        self._stable = 0
        self._last_delivered = 0
        self.token_pass_rounds = 0

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        if not self._have_token:
            return
        if self.wants_own() and self._sent_this_visit < self.max_per_token:
            self._sent_this_visit += 1
            mid = self.next_own()
            seq = self._token_next_seq
            self._token_next_seq += 1
            data = _Data(msg=mid, seq=seq, stable_up_to=self._stable)
            self._note_data(data, round_index)
            if self.others:
                self.send(self.others, data)
            return
        # Visit over (quota reached or nothing to send): pass the token.
        self._pass_token(round_index)

    def _pass_token(self, round_index: int) -> None:
        self._refresh_contiguous()
        self._token_aru[self.pid] = self._my_contiguous
        self._note_stability(round_index)
        self._have_token = False
        self._sent_this_visit = 0
        successor = self.members[(self.members.index(self.pid) + 1) % self.n]
        token = _Token(
            next_seq=self._token_next_seq,
            aru=tuple(sorted(self._token_aru.items())),
        )
        self.token_pass_rounds += 1
        if successor == self.pid:
            self._have_token = True
        else:
            self.send(successor, token)

    # ------------------------------------------------------------------
    def receive(self, round_index: int, src: ProcessId, payload: object) -> None:
        if isinstance(payload, _Data):
            self._note_data(payload, round_index)
        elif isinstance(payload, _Token):
            self._have_token = True
            self._sent_this_visit = 0
            self._token_next_seq = max(self._token_next_seq, payload.next_seq)
            for pid, mark in payload.aru:
                self._token_aru[pid] = max(self._token_aru[pid], mark)
            self._refresh_contiguous()
            self._token_aru[self.pid] = self._my_contiguous
            self._note_stability(round_index)
        else:
            raise ProtocolError(f"unexpected payload {payload!r}")

    # ------------------------------------------------------------------
    def _note_data(self, data: _Data, round_index: int) -> None:
        self._received.setdefault(data.seq, data.msg)
        self._refresh_contiguous()
        if data.stable_up_to > self._stable:
            self._stable = data.stable_up_to
        self._flush(round_index)

    def _refresh_contiguous(self) -> None:
        while self._my_contiguous + 1 in self._received:
            self._my_contiguous += 1

    def _note_stability(self, round_index: int) -> None:
        stable = min(self._token_aru.values())
        if stable > self._stable:
            self._stable = stable
        self._flush(round_index)

    def _flush(self, round_index: int) -> None:
        while (
            self._last_delivered + 1 <= self._stable
            and self._last_delivered + 1 in self._received
        ):
            seq = self._last_delivered + 1
            self._last_delivered = seq
            self.record_delivery(self._received[seq], seq, round_index)
