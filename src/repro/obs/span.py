"""Per-message lifecycle spans, shared by the simulator and the live runtime.

A *span event* marks one stage of a message's life on one node::

    broadcast -> fwd_hop(i) -> sequenced -> stored -> stable -> delivered

Events are keyed by the application-level :class:`~repro.types.MessageId`
(``origin``, ``local_seq``) so a message's spans join directly with
``ExperimentResult.broadcasts`` and the metrics collector's completion
times.  Timestamps come from whatever ``Clock`` the emitting runtime
uses — ``Simulator.now`` in simulation, ``loop.time()`` (CLOCK_MONOTONIC)
on live nodes — through one code path.

Emission follows the shared :class:`~repro.obs.event.EventLog`
discipline: call sites guard with ``if spans.enabled:`` *before*
building arguments, so a disabled log costs one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.obs.event import Event, EventLog
from repro.types import MessageId

#: Lifecycle stages in causal order.  ``fwd_hop`` may repeat (one per
#: non-leader hop on the way to the leader) and ``stored`` appears once
#: per backup; the rest appear once per message per emitting node.
SPAN_KINDS = ("broadcast", "fwd_hop", "sequenced", "stored", "stable", "delivered")

#: Causal rank of each kind — used to sort a message's events into
#: lifecycle order when wall-clock timestamps tie (or, cross-node, when
#: clocks are close enough to interleave).
KIND_RANK: Dict[str, int] = {kind: rank for rank, kind in enumerate(SPAN_KINDS)}


@dataclass(frozen=True)
class SpanEvent(Event):
    """One lifecycle event for one message on one node."""

    TYPE = "span"

    time: float
    node: int
    kind: str
    origin: int
    local_seq: int
    sequence: Optional[int] = None
    hop: Optional[int] = None
    #: Inner ring instance the event happened on (multi-ring only).
    ring: Optional[int] = None

    @property
    def message_id(self) -> MessageId:
        return MessageId(origin=self.origin, local_seq=self.local_seq)

    def __str__(self) -> str:
        extra = ""
        if self.sequence is not None:
            extra += f" seq={self.sequence}"
        if self.hop is not None:
            extra += f" hop={self.hop}"
        if self.ring is not None:
            extra += f" ring={self.ring}"
        return (
            f"[{self.time:.6f}] n{self.node} {self.kind} "
            f"({self.origin},{self.local_seq}){extra}"
        )


def lifecycle_sort_key(event: SpanEvent) -> tuple:
    """Sort key placing a message's events in causal lifecycle order."""
    return (event.time, KIND_RANK.get(event.kind, len(SPAN_KINDS)), event.node)


def distinct_messages(events: Iterable[SpanEvent]) -> List[MessageId]:
    """Distinct message ids, in first-appearance order."""
    seen: Dict[MessageId, None] = {}
    for event in events:
        seen.setdefault(event.message_id, None)
    return list(seen)


class SpanLog(EventLog[SpanEvent]):
    """Per-message lifecycle log; ``emit(time, node, kind, origin,
    local_seq, sequence=, hop=, ring=)``."""

    record_type = SpanEvent

    def lifecycle(self, message: MessageId) -> List[SpanEvent]:
        """All events for one message, in causal lifecycle order."""
        return sorted(
            self.records(origin=message.origin, local_seq=message.local_seq),
            key=lifecycle_sort_key,
        )

    def messages(self) -> List[MessageId]:
        return distinct_messages(self._records)
