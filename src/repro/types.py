"""Shared value types used across the library.

The simulator, the protocols, and the checkers all exchange a small set
of identifiers and records.  Keeping them in one dependency-free module
avoids import cycles between subsystems.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional, Protocol, Tuple

#: ``@dataclass(**SLOTS)`` for the records allocated per message hop: no
#: instance ``__dict__`` where the interpreter can generate ``__slots__``
#: (3.10+); on 3.9 the same classes stay dict-backed.
SLOTS: Dict[str, bool] = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Identifier of a process (a ring position in the initial view).
ProcessId = int

#: Simulated time, in seconds.
SimTime = float

#: Monotonically increasing view number assigned by the membership layer.
ViewId = int

#: Sequence number assigned by a sequencer to order deliveries.
SequenceNumber = int


class Timer(Protocol):
    """Cancellation handle returned by :meth:`Scheduler.schedule`."""

    def cancel(self) -> None:
        """Prevent the scheduled callback from running (idempotent)."""
        ...  # pragma: no cover - protocol definition


class Clock(Protocol):
    """A source of monotonically non-decreasing time in seconds.

    In the discrete-event world this is *simulated* time; in the live
    asyncio runtime it is the event loop's monotonic clock.  Protocol
    code must never care which one it is reading.
    """

    @property
    def now(self) -> "SimTime":
        """Current time in seconds."""
        ...  # pragma: no cover - protocol definition


class Scheduler(Clock, Protocol):
    """The runtime surface protocol automata are written against.

    This is the exact ``Simulator``-shaped subset the protocol stack
    (FSR, the membership layer) actually uses: read the clock, schedule
    a callback after a delay, cancel it.  Both the discrete-event
    :class:`~repro.sim.engine.Simulator` and the live
    :class:`~repro.live.scheduler.AsyncioScheduler` satisfy it, which is
    what lets the *same* protocol code run simulated and over real TCP.
    """

    def schedule(
        self, delay: "SimTime", callback: Callable[..., None], *args: Any
    ) -> Timer:
        """Run ``callback(*args)`` ``delay`` seconds from now."""
        ...  # pragma: no cover - protocol definition


class MessageId(NamedTuple):
    """Globally unique identifier of one TO-broadcast message.

    A message is identified by its origin process and a per-origin
    counter.  The identifier never changes, even when the message is
    re-broadcast during view-change recovery, which is what makes
    duplicate suppression after a crash possible.

    A tuple rather than a frozen dataclass because the id keys every
    per-message table of the protocol: it is hashed and compared in C.
    """

    origin: ProcessId
    local_seq: int

    def __str__(self) -> str:
        return f"m{self.origin}.{self.local_seq}"


@dataclass(frozen=True, **SLOTS)
class Delivery:
    """One TO-delivery event observed at one process.

    Delivery logs — lists of :class:`Delivery` per process — are the
    common currency between the cluster harness, the metrics collector,
    and the correctness checkers.
    """

    #: Process at which the delivery happened.
    process: ProcessId
    #: Identity of the delivered message.
    message_id: MessageId
    #: Sequence number under which the message was delivered.
    sequence: SequenceNumber
    #: Simulated time of the delivery.
    time: SimTime
    #: Payload size in bytes (the payload itself is not retained).
    size_bytes: int = 0
    #: Inner ring instance that ordered this message (multi-ring only).
    ring: Optional[int] = None
    #: Global multiplexer slot that released it (multi-ring only).
    slot: Optional[int] = None

    def key(self) -> Tuple[ProcessId, int]:
        """Return the (origin, local_seq) pair identifying the message."""
        return (self.message_id.origin, self.message_id.local_seq)


@dataclass(frozen=True)
class BroadcastRecord:
    """One TO-broadcast request as submitted by the application."""

    message_id: MessageId
    size_bytes: int
    submit_time: SimTime


@dataclass
class ProcessSet:
    """An ordered set of live processes forming a ring.

    The order of ``members`` *is* the ring order: ``members[0]`` is the
    leader, ``members[1:t+1]`` are the backups.
    """

    members: Tuple[ProcessId, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in process set: {self.members}")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def __iter__(self):
        return iter(self.members)

    def position_of(self, pid: ProcessId) -> int:
        """Return the ring position of ``pid`` (0 is the leader)."""
        return self.members.index(pid)

    def successor_of(self, pid: ProcessId) -> ProcessId:
        """Return the clockwise ring successor of ``pid``."""
        pos = self.position_of(pid)
        return self.members[(pos + 1) % len(self.members)]

    def predecessor_of(self, pid: ProcessId) -> ProcessId:
        """Return the clockwise ring predecessor of ``pid``."""
        pos = self.position_of(pid)
        return self.members[(pos - 1) % len(self.members)]

    def at_position(self, position: int) -> ProcessId:
        """Return the process at ``position`` (taken modulo the size)."""
        return self.members[position % len(self.members)]


@dataclass(frozen=True)
class View:
    """One installed membership view.

    Views are produced by the virtual synchrony layer.  A view is
    immutable; membership changes install a new view with ``view_id``
    incremented.
    """

    view_id: ViewId
    members: Tuple[ProcessId, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"duplicate members in view: {self.members}")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self.members

    def process_set(self) -> ProcessSet:
        """Return the ring-ordered process set of this view."""
        return ProcessSet(self.members)

    def leader(self) -> ProcessId:
        """Return the leader (ring position 0) of this view."""
        if not self.members:
            raise ValueError("empty view has no leader")
        return self.members[0]


@dataclass
class CrashEvent:
    """A scheduled crash of one process, used by the failure injector."""

    process: ProcessId
    time: SimTime
    #: Optional human-readable reason recorded in traces.
    reason: str = "injected"


@dataclass
class TimerHandle:
    """Opaque cancellation handle for a scheduled simulator event."""

    sequence: int
    cancelled: bool = False
    #: Link back to the scheduled heap entry; internal to the engine.
    _entry: Optional[object] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the timer cancelled; the engine skips cancelled entries."""
        self.cancelled = True
