"""View-change recovery: flush-state collection and merge (paper §4.2.1).

The paper prescribes, upon installing view ``v_{r+1}``:

* every process re-TO-broadcasts its messages not yet TO-delivered, and
* the new leader resends all ``(m, seq)`` pairs not yet delivered by
  everyone, plus an ack of the latest delivered message.

This implementation realises the same outcome through the membership
layer's state exchange: each member's flush state carries its retained
``(m, seq)`` records and its delivery progress; the merged states are
distributed with the view install, so every member can locally deliver
everything that *anyone* might already have delivered — which is
exactly the uniform-agreement obligation — before normal operation
resumes.  Re-broadcasting of unsequenced messages is then done by their
origins through the ordinary protocol path.

Safety argument (tested by crash-schedule property tests):

* any message TO-delivered by *any* process (even one that crashed) was
  *stable* — stored with its sequence number by the leader and all
  ``t`` backups — so with at most ``t`` crashes at least one survivor
  retains it and contributes it to the merge;
* retention is garbage-collected only below the stability watermark,
  which only advances once every process holds the record, so the merge
  always covers the gap between the slowest and fastest survivor;
* sequence numbers beyond the first gap in the merged record set were
  never deliverable anywhere (delivery is contiguous), so those
  messages are safely demoted to unsequenced and re-broadcast by their
  origins under fresh sequence numbers, keeping their original message
  identity (integrity: duplicates are filtered by identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.errors import ProtocolError
from repro.types import SLOTS, MessageId, ProcessId, SequenceNumber

#: Wire accounting: bytes per retained record beyond its payload.
RECORD_OVERHEAD_BYTES = 32
#: Fixed flush-state framing.
STATE_HEADER_BYTES = 24


@dataclass(**SLOTS)
class RetainedMessage:
    """One sequenced message retained for recovery."""

    message_id: MessageId
    origin: ProcessId
    sequence: SequenceNumber
    payload: object
    payload_size: int
    segment: Optional[Tuple[MessageId, int, int]] = None


@dataclass
class FSRFlushState:
    """What one FSR process contributes to a view change."""

    #: Highest sequence number this process has TO-delivered.
    last_delivered: SequenceNumber
    #: This process's stability watermark at flush time.
    watermark: SequenceNumber
    #: Every sequenced record this process still retains, by sequence.
    records: Dict[SequenceNumber, RetainedMessage] = field(default_factory=dict)
    #: True for a process joining the group that never installed a view:
    #: its (empty) delivery progress must not drag the merge's
    #: ``min_last_delivered`` down to zero — a joiner has no history and
    #: starts delivering at the recovery point instead.
    fresh: bool = False

    def size_bytes(self) -> int:
        payload_bytes = sum(r.payload_size for r in self.records.values())
        return (
            STATE_HEADER_BYTES
            + payload_bytes
            + RECORD_OVERHEAD_BYTES * len(self.records)
        )


@dataclass
class MergedRecovery:
    """Outcome of merging all members' flush states."""

    #: Union of surviving sequenced records (consistent by construction).
    records: Dict[SequenceNumber, RetainedMessage]
    #: First sequence number of the new view: every member delivers the
    #: merged records up to (excluding) this, then normal operation
    #: resumes here.
    next_sequence: SequenceNumber
    #: Message ids whose old-view sequence numbers were beyond a gap and
    #: therefore voided; their origins re-broadcast them.
    orphaned: Set[MessageId]
    #: Lowest delivery progress among survivors (diagnostics).
    min_last_delivered: SequenceNumber
    #: Highest delivery progress among survivors.
    max_last_delivered: SequenceNumber


def merge_flush_states(
    states: Dict[ProcessId, FSRFlushState]
) -> MergedRecovery:
    """Merge the members' flush states into one recovery plan.

    Raises :class:`~repro.errors.ProtocolError` if the states are
    mutually inconsistent (two different messages under one sequence
    number) or violate the uniformity retention invariant (a sequence
    number some survivor has delivered is retained by nobody).
    """
    if not states:
        raise ProtocolError("cannot merge an empty set of flush states")

    merged: Dict[SequenceNumber, RetainedMessage] = {}
    for pid, state in states.items():
        for seq, record in state.records.items():
            if record.sequence != seq:
                raise ProtocolError(
                    f"process {pid} retained {record.message_id} under "
                    f"sequence {seq} but the record says {record.sequence}"
                )
            existing = merged.get(seq)
            if existing is None:
                merged[seq] = record
            elif existing.message_id != record.message_id:
                raise ProtocolError(
                    f"sequence {seq} maps to {existing.message_id} and "
                    f"{record.message_id} in different flush states"
                )

    seasoned = [state for state in states.values() if not state.fresh]
    if not seasoned:
        # All members are joiners (fresh group bootstrap): no history.
        return MergedRecovery(
            records={},
            next_sequence=1,
            orphaned=set(),
            min_last_delivered=0,
            max_last_delivered=0,
        )
    min_last = min(state.last_delivered for state in seasoned)
    max_last = max(state.last_delivered for state in seasoned)

    # Uniformity check: everything someone delivered but someone else
    # has not must be recoverable from the merge.
    for seq in range(min_last + 1, max_last + 1):
        if seq not in merged:
            raise ProtocolError(
                f"unrecoverable sequence {seq}: delivered by a survivor "
                f"(max_last={max_last}) but retained by nobody "
                f"(min_last={min_last})"
            )

    # Extend delivery past max_last while the merged records stay
    # contiguous; the first gap voids everything after it.
    next_sequence = max_last + 1
    while next_sequence in merged:
        next_sequence += 1
    orphaned = {
        record.message_id
        for seq, record in merged.items()
        if seq >= next_sequence
    }
    deliverable = {
        seq: record for seq, record in merged.items() if seq < next_sequence
    }
    return MergedRecovery(
        records=deliverable,
        next_sequence=next_sequence,
        orphaned=orphaned,
        min_last_delivered=min_last,
        max_last_delivered=max_last,
    )


def build_install_payloads(states, receivers):
    """Coordinator-side merge + per-receiver pruning.

    ``states`` maps member id to the :class:`~repro.vsc.membership.FlushState`
    wrapper whose payload is an :class:`FSRFlushState`; the result maps
    each receiver to a wrapper whose payload is a :class:`MergedRecovery`
    pruned to the sequence range above that receiver's own progress.
    Shared by FSR and by the fault-tolerant fixed sequencer — both
    protocols recover from the same (sequence -> record) state shape.
    """
    from repro.vsc.membership import FlushState  # local: avoid cycles

    raw = {pid: wrapper.payload for pid, wrapper in states.items()}
    merged = merge_flush_states(raw)
    payloads = {}
    for receiver in receivers:
        contributed = raw.get(receiver)
        if contributed is None or contributed.fresh:
            floor = merged.min_last_delivered
        else:
            floor = max(contributed.last_delivered, merged.min_last_delivered)
        records = {
            seq: record
            for seq, record in merged.records.items()
            if seq > floor
        }
        pruned = MergedRecovery(
            records=records,
            next_sequence=merged.next_sequence,
            orphaned=set(merged.orphaned),
            min_last_delivered=merged.min_last_delivered,
            max_last_delivered=merged.max_last_delivered,
        )
        size = (
            sum(record.payload_size for record in records.values())
            + RECORD_OVERHEAD_BYTES * len(records)
            + STATE_HEADER_BYTES
        )
        payloads[receiver] = FlushState(payload=pruned, size_bytes=size)
    return payloads
