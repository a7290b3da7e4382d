"""Segmentation and reassembly of large payloads (paper §4.1).

    "Because of the ring dissemination topology, uniform message size
    is necessary in order to avoid that large messages stall the
    smaller messages.  This can be achieved by segmenting large
    messages into several smaller ones."

A payload larger than the configured segment size is TO-broadcast as a
run of uniform segments, each an independent protocol-level message.
Reassembly is driven purely by the total delivery order: because every
process delivers the same segments in the same order, every process
completes each application message at the same point of the total
order, so application-level delivery order is itself total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.types import SLOTS, MessageId, ProcessId


@dataclass(frozen=True, **SLOTS)
class Segment:
    """One uniform-size piece of an application payload."""

    app_message_id: MessageId
    index: int
    count: int
    payload: Any
    size_bytes: int


def split_payload(
    app_message_id: MessageId,
    payload: Any,
    size_bytes: int,
    segment_size: Optional[int],
) -> List[Segment]:
    """Split ``payload`` into uniform segments of at most ``segment_size``.

    ``bytes`` payloads are split for real; opaque payloads (benchmarks
    pass ``None`` and a size) ride on the first segment only.  With
    ``segment_size`` of ``None`` (or a payload that already fits) the
    result is a single segment covering the whole message.
    """
    if size_bytes < 0:
        raise ProtocolError("payload size cannot be negative")
    if segment_size is None or size_bytes <= segment_size:
        return [
            Segment(
                app_message_id=app_message_id,
                index=0,
                count=1,
                payload=payload,
                size_bytes=size_bytes,
            )
        ]
    count = -(-size_bytes // segment_size)  # ceil division
    segments: List[Segment] = []
    for index in range(count):
        start = index * segment_size
        end = min(start + segment_size, size_bytes)
        if isinstance(payload, (bytes, bytearray)):
            piece: Any = bytes(payload[start:end])
        else:
            piece = payload if index == 0 else None
        segments.append(
            Segment(
                app_message_id=app_message_id,
                index=index,
                count=count,
                payload=piece,
                size_bytes=end - start,
            )
        )
    return segments


@dataclass
class _PartialMessage:
    count: int
    received: Dict[int, Segment] = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.received) == self.count


class Reassembler:
    """Rebuilds application messages from TO-delivered segments.

    One instance per process.  :meth:`on_segment` returns the completed
    application message exactly when its last segment arrives, and
    ``None`` otherwise.
    """

    def __init__(self) -> None:
        self._partials: Dict[MessageId, _PartialMessage] = {}

    def on_segment(self, segment: Segment) -> Optional[Tuple[Any, int]]:
        """Feed one delivered segment; returns ``(payload, size)`` when
        the application message is complete."""
        if segment.count == 1:
            return segment.payload, segment.size_bytes

        partial = self._partials.get(segment.app_message_id)
        if partial is None:
            partial = _PartialMessage(count=segment.count)
            self._partials[segment.app_message_id] = partial
        if partial.count != segment.count:
            raise ProtocolError(
                f"segment count mismatch for {segment.app_message_id}: "
                f"{partial.count} vs {segment.count}"
            )
        if segment.index in partial.received:
            raise ProtocolError(
                f"duplicate segment {segment.index} of {segment.app_message_id}"
            )
        partial.received[segment.index] = segment
        if not partial.complete():
            return None

        del self._partials[segment.app_message_id]
        ordered = [partial.received[i] for i in range(partial.count)]
        total_size = sum(s.size_bytes for s in ordered)
        if all(isinstance(s.payload, (bytes, bytearray)) for s in ordered):
            payload: Any = b"".join(bytes(s.payload) for s in ordered)
        else:
            payload = ordered[0].payload
        return payload, total_size

    @property
    def incomplete_count(self) -> int:
        """Application messages still missing segments."""
        return len(self._partials)
