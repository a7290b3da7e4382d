"""Communication-history protocol in the round model (paper §2.4).

Every process broadcasts timestamped messages; delivery happens when a
later timestamp has been seen from everyone.  The receive slot is the
constraint: each process can absorb only one of the ``n - 1`` broadcasts
arriving per round, so senders must throttle to a rate of one message
every ``n - 1`` rounds for the system to stay stable — the quadratic
message complexity the paper criticises, expressed in round-model
terms.  ``k``-to-``n`` throughput is therefore about ``k / (n - 1)``.

Why this class alone is not the :mod:`repro.protocols` one under
:class:`~repro.rounds.host.RoundHost`: the round model charges a 16 B
null a full receive slot, and the simulator class sends a null every
``null_period_s`` it has not sent data.  Hosted, that is a null per
idle member per round — ``n - 1`` arrivals at every one-message receive
slot each round, and a null in each sender's send slot before its
broadcast is offered: nothing completes (0.000 msgs/round at ``n = 6``,
``k = 1, 2, 6``).  Mapping the period onto rounds would need a
protocol-specific null period in rounds, a new option; the throttle
above is the stable rate such a period would have to find.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.rounds.engine import ClosedLoopProcess, DeliverCb, RoundMsgId
from repro.types import ProcessId


@dataclass(frozen=True)
class _Stamped:
    msg: Optional[RoundMsgId]  # None for a null (clock-advance) message
    timestamp: int


class CommunicationHistoryRoundProcess(ClosedLoopProcess):
    """One process of the communication-history protocol."""

    def __init__(
        self,
        pid: ProcessId,
        members: Tuple[ProcessId, ...],
        supply: int = 0,
        deliver_cb: Optional[DeliverCb] = None,
        window: Optional[int] = None,
    ) -> None:
        super().__init__(pid, members, supply, deliver_cb, window)
        self._clock = 0
        self._latest: Dict[ProcessId, int] = {p: 0 for p in members}
        self._pending: List[Tuple[int, ProcessId, RoundMsgId]] = []
        self._delivery_index = 0

    # ------------------------------------------------------------------
    def begin_round(self, round_index: int) -> None:
        # Throttle to the stable rate: one send every (n - 1) rounds.
        period = max(1, self.n - 1)
        if round_index % period != self.pid % period:
            return
        self._clock += 1
        self._latest[self.pid] = self._clock
        mid: Optional[RoundMsgId] = None
        if self.wants_own():
            mid = self.next_own()
            heapq.heappush(self._pending, (self._clock, self.pid, mid))
        if self.others:
            self.send(self.others, _Stamped(msg=mid, timestamp=self._clock))
        self._flush(round_index)

    def receive(self, round_index: int, src: ProcessId, payload: object) -> None:
        if not isinstance(payload, _Stamped):
            raise ProtocolError(f"unexpected payload {payload!r}")
        self._clock = max(self._clock, payload.timestamp)
        self._latest[src] = max(self._latest[src], payload.timestamp)
        if payload.msg is not None:
            heapq.heappush(self._pending, (payload.timestamp, src, payload.msg))
        self._flush(round_index)

    def _flush(self, round_index: int) -> None:
        while self._pending:
            timestamp, origin, mid = self._pending[0]
            front = min(
                self._latest[p] for p in self.members if p != origin
            )
            if front <= timestamp:
                return
            heapq.heappop(self._pending)
            self._delivery_index += 1
            self.record_delivery(mid, self._delivery_index, round_index)
