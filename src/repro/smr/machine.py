"""Generic state machine replication over TO-broadcast.

A :class:`ReplicatedStateMachine` wraps one replica's protocol endpoint
(any :class:`~repro.core.api.TotalOrderBroadcast`): commands submitted
at any replica are TO-broadcast, and every replica applies the total
order of commands to its local :class:`StateMachine`.  Uniform total
order is exactly the property that keeps replicas bit-identical even
across crashes — the checkers in :mod:`repro.smr` tests assert state
equality, not just delivery equality.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.api import BroadcastListener, TotalOrderBroadcast
from repro.errors import ProtocolError
from repro.types import MessageId, ProcessId


@dataclass(frozen=True)
class Command:
    """One application command: an operation name plus arguments."""

    op: str
    args: Tuple[Any, ...] = ()

    def encode(self) -> bytes:
        """Serialise to bytes (the TO-broadcast payload)."""
        return json.dumps([self.op, list(self.args)]).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "Command":
        try:
            op, args = json.loads(payload.decode("utf-8"))
            return cls(op=op, args=tuple(args))
        except (ValueError, TypeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"undecodable command payload: {exc}") from exc


#: Envelope op packing several commands into one TO-broadcast:
#: ``Command("@batch", [[op, args], ...])`` (PROTOCOL.md Appendix D).
BATCH_OP = "@batch"


def batch_command(commands: Sequence[Command]) -> Command:
    """Pack ``commands`` into one broadcastable command.

    A batch of one is the command itself — byte-identical on the ring
    to submitting it alone.
    """
    if len(commands) == 1:
        return commands[0]
    return Command(BATCH_OP, tuple([c.op, list(c.args)] for c in commands))


def unbatch(command: Command) -> Tuple[Command, ...]:
    """The commands ``command`` stands for, in apply order.

    The whole envelope is validated here, so a malformed, empty or
    nested batch raises :class:`ProtocolError` before any of its
    sub-commands is applied.
    """
    if command.op != BATCH_OP:
        return (command,)
    commands = []
    for entry in command.args:
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], (list, tuple))
        ):
            raise ProtocolError(f"malformed {BATCH_OP} entry: {entry!r}")
        op, args = entry
        if op == BATCH_OP:
            raise ProtocolError(f"nested {BATCH_OP}")
        commands.append(Command(op, tuple(args)))
    if not commands:
        raise ProtocolError(f"empty {BATCH_OP}")
    return tuple(commands)


class StateMachine(ABC):
    """A deterministic state machine: same commands, same state."""

    @abstractmethod
    def apply(self, command: Command) -> Any:
        """Apply ``command`` and return its (deterministic) result."""

    @abstractmethod
    def snapshot(self) -> Any:
        """Return a comparable snapshot of the full state."""


#: Upcall on every applied command: (index, origin, command, result).
ApplyCallback = Callable[[int, ProcessId, Command, Any], None]

#: Placeholder for a locally submitted command not yet delivered.
_PENDING = object()

#: Results a replica holds for :meth:`ReplicatedStateMachine.result_of`
#: before the oldest is dropped: callers that never collect (the serve
#: tier hears outcomes through callbacks) stay at a constant footprint.
MAX_UNCOLLECTED_RESULTS = 1024


class ReplicatedStateMachine:
    """One replica: a state machine driven by a TO-broadcast endpoint.

    Example::

        rsm = ReplicatedStateMachine(protocol, KVStore())
        rsm.submit(Command("put", ("key", "value")))
        # ... after the run, every replica's snapshot() is identical.

    A delivered ``@batch`` (:func:`batch_command`) is unpacked here and
    nowhere else on the delivery path: ``applied_count``, apply
    callbacks and the machine all see its sub-commands one by one,
    exactly as if each had been broadcast alone.
    """

    def __init__(
        self, broadcast: TotalOrderBroadcast, machine: StateMachine
    ) -> None:
        self.broadcast = broadcast
        self.machine = machine
        self.applied_count = 0
        #: Optional :class:`repro.obs.profile.CpuAccountant`: when set,
        #: the delivery path charges payload decode and state-machine
        #: apply to separate CPU stages.  ``None`` costs one attribute
        #: check per delivery.
        self.profile: Optional[Any] = None
        self._apply_callbacks: List[ApplyCallback] = []
        #: Results of locally submitted commands, by message id, from
        #: submit until :meth:`result_of` collects them — at most the
        #: newest ``MAX_UNCOLLECTED_RESULTS``, whatever the delivery count.
        self._local_results: Dict[MessageId, Any] = {}
        broadcast.set_listener(BroadcastListener(self._on_deliver))

    def submit(self, command: Command) -> MessageId:
        """TO-broadcast ``command``; it will be applied at every replica."""
        message_id = self.broadcast.broadcast(command.encode())
        results = self._local_results
        results[message_id] = _PENDING
        if len(results) > MAX_UNCOLLECTED_RESULTS:
            del results[next(iter(results))]  # oldest submission
        return message_id

    def on_apply(self, callback: ApplyCallback) -> None:
        """Observe every applied command (testing, metrics)."""
        self._apply_callbacks.append(callback)

    def result_of(self, message_id: MessageId) -> Any:
        """Collect the result of a locally submitted command.

        ``None`` until it is applied; a batch yields the list of its
        sub-commands' results.

        Breaking change (ISSUE 12): only ids this replica submitted are
        answered — commands submitted elsewhere always read ``None`` —
        the result is handed over once (collecting it drops it), and a
        caller more than ``MAX_UNCOLLECTED_RESULTS`` submissions behind
        finds its oldest results gone.  Observe every apply, remote ones
        included, with :meth:`on_apply`.
        """
        if self._local_results.get(message_id, _PENDING) is _PENDING:
            return None
        return self._local_results.pop(message_id)

    def deliver(
        self, origin: ProcessId, message_id: MessageId, payload: Any, size: int
    ) -> None:
        """Public delivery entry point for multiplexed listeners.

        The constructor claims the broadcast endpoint's single listener
        slot.  Runtimes that must observe deliveries themselves (the
        live node journals every delivery) install their own combined
        listener instead and forward each delivery here.
        """
        self._on_deliver(origin, message_id, payload, size)

    def _on_deliver(
        self, origin: ProcessId, message_id: MessageId, payload: Any, size: int
    ) -> None:
        profile = self.profile
        if profile is None:
            command = Command.decode(payload)
            results = [self._apply(origin, sub) for sub in unbatch(command)]
        else:
            with profile.stage("decode"):
                command = Command.decode(payload)
                commands = unbatch(command)
            with profile.stage("apply"):
                results = [self._apply(origin, sub) for sub in commands]
        if message_id in self._local_results:
            self._local_results[message_id] = (
                results if command.op == BATCH_OP else results[0]
            )

    def _apply(self, origin: ProcessId, command: Command) -> Any:
        result = self.machine.apply(command)
        self.applied_count += 1
        for callback in list(self._apply_callbacks):
            callback(self.applied_count, origin, command, result)
        return result

    def snapshot(self) -> Any:
        """The replica's current deterministic state."""
        return self.machine.snapshot()

    def local_read(self, command: Command) -> Any:
        """Run a read-only command against the local replica directly.

        The paper's footnote 1: invocations that do not change the
        replicated state need not be broadcast and can run in parallel.
        Only commands the state machine declares read-only (its
        ``READ_ONLY_OPS`` attribute) are accepted; the result reflects
        this replica's *applied prefix* of the total order —
        sequentially consistent, not linearisable.  Use :meth:`submit`
        for reads that must be totally ordered.
        """
        read_only_ops = getattr(self.machine, "READ_ONLY_OPS", frozenset())
        if command.op not in read_only_ops:
            raise ProtocolError(
                f"{command.op!r} is not declared read-only by "
                f"{type(self.machine).__name__}; submit() it instead"
            )
        return self.machine.apply(command)
