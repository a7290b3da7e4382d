"""FSR wire messages (paper §4.1, §4.2.2).

Three kinds of traffic circulate clockwise on the ring:

* :class:`FwdData` — a payload on its way to the leader, not yet
  sequenced (``m1`` in the paper's Figure 4).
* :class:`SeqData` — payload plus sequence number, emitted by the
  leader; its ``stable`` flag is set when it transits the last backup
  ``p_t`` (``m2``/``m3`` in Figure 4).
* :class:`AckMsg` — a tiny identifier-only acknowledgment generated by
  the broadcaster's predecessor once the payload has gone round
  (``m4`` in Figure 4); it also carries the sequence number to
  processes that saw the payload before it was sequenced.

Acks piggy-back on any data message heading to the same successor
(:class:`AckBatch` wraps standalone acks when the ring is idle).

Every message additionally carries the sender's *stability watermark*:
the highest sequence number known to be TO-delivered by **all**
processes.  The watermark is how processes garbage-collect retained
messages, and it costs 8 bytes per message (counted in the sizes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.types import SLOTS, MessageId, ProcessId, SequenceNumber, ViewId

#: Header bytes: msg id (12) + origin (4) + view (4) + watermark (8) + kind/flags (4).
DATA_HEADER_BYTES = 32
#: Extra header bytes on sequenced data (sequence number + stability flag).
SEQ_EXTRA_BYTES = 9
#: Bytes per acknowledgment record (id + seq + flags).
ACK_BYTES = 24
#: Framing of a standalone ack batch.
ACK_BATCH_HEADER_BYTES = 16


@dataclass(**SLOTS)
class AckMsg:
    """Acknowledgment for one sequenced message (piggy-backable)."""

    message_id: MessageId
    sequence: SequenceNumber
    #: True once the ack has transited (or was created after) ``p_t``.
    stable: bool
    view_id: ViewId

    def wire_size_bytes(self) -> int:
        return ACK_BYTES


@dataclass(**SLOTS)
class FwdData:
    """Un-sequenced payload travelling toward the leader."""

    message_id: MessageId
    origin: ProcessId
    payload: object
    payload_size: int
    view_id: ViewId
    #: Stability watermark of the sender (see module docstring).
    watermark: SequenceNumber = -1
    #: Acks piggy-backed on this message (paper §4.2.2).
    piggybacked: List[AckMsg] = field(default_factory=list)
    #: Segment metadata: (app-level message id, index, count), or None
    #: when the payload is a whole application message.
    segment: Optional[Tuple[MessageId, int, int]] = None

    def wire_size_bytes(self) -> int:
        return (
            DATA_HEADER_BYTES
            + self.payload_size
            + ACK_BYTES * len(self.piggybacked)
            + (12 if self.segment is not None else 0)
        )


@dataclass(**SLOTS)
class SeqData:
    """Sequenced payload circulating from the leader onward."""

    message_id: MessageId
    origin: ProcessId
    payload: object
    payload_size: int
    sequence: SequenceNumber
    #: True once the message has transited (or was emitted at) ``p_t``.
    stable: bool
    view_id: ViewId
    watermark: SequenceNumber = -1
    piggybacked: List[AckMsg] = field(default_factory=list)
    segment: Optional[Tuple[MessageId, int, int]] = None

    def wire_size_bytes(self) -> int:
        return (
            DATA_HEADER_BYTES
            + SEQ_EXTRA_BYTES
            + self.payload_size
            + ACK_BYTES * len(self.piggybacked)
            + (12 if self.segment is not None else 0)
        )


@dataclass(**SLOTS)
class AckBatch:
    """Standalone carrier for acks when there is no data to ride on."""

    acks: List[AckMsg]
    view_id: ViewId
    watermark: SequenceNumber = -1

    def wire_size_bytes(self) -> int:
        return ACK_BATCH_HEADER_BYTES + ACK_BYTES * len(self.acks)


#: Union of everything FSR puts on the wire.
FSRWireMessage = (FwdData, SeqData, AckBatch)


def data_origin(message: object) -> Optional[ProcessId]:
    """Origin of a data message, or ``None`` for control traffic.

    The fairness scheduler uses this to decide which buffered messages
    count as "messages from origin X" (paper Figure 5).
    """
    if isinstance(message, (FwdData, SeqData)):
        return message.origin
    return None
