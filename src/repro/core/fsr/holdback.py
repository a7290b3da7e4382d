"""Hold-back queue: force deliveries into contiguous sequence order.

On a quiet ring FIFO links already deliver sequenced messages in order,
but the fairness scheduler may reorder forwarded traffic across origins
(paper Figure 5) and view-change recovery re-injects older sequence
numbers; the hold-back queue makes delivery order independent of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import ProtocolError
from repro.types import SLOTS, MessageId, SequenceNumber


@dataclass(**SLOTS)
class HoldbackEntry:
    """One message ready for delivery, waiting for its turn.

    The queue reads only ``sequence`` and ``message_id``, so any record
    carrying them can be held as is: :class:`FSRProcess` marks its
    retained :class:`~repro.core.fsr.recovery.RetainedMessage` records
    deliverable directly instead of copying them into entries.
    """

    sequence: SequenceNumber
    message_id: MessageId
    payload: object
    payload_size: int


class HoldbackQueue:
    """Buffers deliverable messages and releases a contiguous prefix.

    Example::

        queue = HoldbackQueue(on_deliver=callback)
        queue.mark_deliverable(entry_seq2)   # held
        queue.mark_deliverable(entry_seq1)   # delivers 1 then 2
    """

    def __init__(
        self,
        on_deliver: Callable[[HoldbackEntry], None],
        first_sequence: SequenceNumber = 1,
    ) -> None:
        self._on_deliver = on_deliver
        #: Highest sequence released so far (read-only for callers).
        self.last_delivered: SequenceNumber = first_sequence - 1
        self._held: Dict[SequenceNumber, HoldbackEntry] = {}
        self._delivered_count = 0

    @property
    def next_sequence(self) -> SequenceNumber:
        """The sequence number the queue will release next."""
        return self.last_delivered + 1

    @property
    def delivered_count(self) -> int:
        return self._delivered_count

    @property
    def held_count(self) -> int:
        """Messages deliverable but blocked on a sequence gap."""
        return len(self._held)

    def held_sequences(self) -> List[SequenceNumber]:
        return sorted(self._held)

    def mark_deliverable(self, entry: HoldbackEntry) -> int:
        """Declare ``entry`` safe to deliver; flush the contiguous prefix.

        Returns how many messages were released by this call.  Entries
        below the watermark are duplicates and ignored; conflicting
        duplicates (same sequence, different message) indicate a
        protocol bug and raise :class:`~repro.errors.ProtocolError`.
        """
        seq = entry.sequence
        if seq <= self.last_delivered:
            return 0  # already delivered: duplicate from recovery
        existing = self._held.get(seq)
        if existing is not None:
            if existing.message_id != entry.message_id:
                raise ProtocolError(
                    f"sequence {seq} assigned to both {existing.message_id} "
                    f"and {entry.message_id}"
                )
            return 0
        self._held[seq] = entry
        return self._release()

    def _release(self) -> int:
        """Deliver the contiguous prefix of held entries; returns how many."""
        released = 0
        # Queue state is re-read each turn: a delivery upcall may re-enter.
        while self.last_delivered + 1 in self._held:
            self.last_delivered += 1
            self._delivered_count += 1
            released += 1
            self._on_deliver(self._held.pop(self.last_delivered))
        return released

    def clear_held(self) -> int:
        """Discard all blocked entries (view-change recovery).

        Old-view sequence assignments beyond the recovery point are
        void — the new leader will reassign those numbers — so keeping
        the entries would produce false sequence conflicts.  Returns
        how many entries were dropped.
        """
        dropped = len(self._held)
        self._held.clear()
        return dropped

    def fast_forward(self, next_sequence: SequenceNumber) -> None:
        """Jump the delivery cursor (view-change recovery only).

        Entries the cursor skips over are discarded — recovery has
        already delivered or re-issued them.
        """
        if next_sequence <= self.last_delivered:
            raise ProtocolError(
                f"cannot rewind hold-back queue from {self.next_sequence} "
                f"to {next_sequence}"
            )
        self.last_delivered = next_sequence - 1
        self._held = {s: e for s, e in self._held.items() if s >= next_sequence}
        self._release()
