"""Exactly-once client sessions inside the replicated state machine.

Every client request is wrapped in a session envelope identified by
``(client_id, seq_no)`` and broadcast as an ordinary :class:`Command`.
The dedup table lives *inside* the state machine — replicated through
the total order — so a retry after leader failover hits the same table
on the new leader and applies exactly once.  Responses are cached per
session until the client's own ``first_unacked`` cursor prunes them,
so a re-sent already-acked request is answered from the cache instead
of re-executing.

Design points:

* **Envelope as Command.**  ``Command("@session", (client, seq,
  first_unacked, op, args))`` rides the existing RSM decode path
  unchanged; the sim and live runtimes need no new payload kind.
* **Floor + cache.**  Per session we keep ``floor`` (every seq ≤ floor
  is known-applied; its result may be pruned) and a ``results`` cache
  for seqs above the floor.  The floor only advances on the client's
  own ``first_unacked``, so a cached response is never dropped while
  the client might still retry it.  FIFO-per-origin in the ring makes
  a client's requests arrive in submission order per server, but
  failover can interleave two servers' copies arbitrarily — the table
  is keyed by seq, so any interleaving of retries, reorders and
  duplicates applies each write exactly once.
* **Deterministic errors are results.**  A :class:`ProtocolError` from
  the inner machine (unknown op, ``incr`` on a string) is caught and
  cached as an error outcome: a buggy client must not crash replicas,
  and its retry must see the same error, not a second execution.
* **Leases ride the log.**  ``Command("@lease", (node, submit_time))``
  is a no-op at apply time but lets every server observe the leader's
  lease renewals in the total order (see :mod:`repro.serve.lease`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.smr.machine import BATCH_OP, Command, StateMachine, unbatch

#: Envelope op for session-wrapped client commands.
SESSION_OP = "@session"
#: No-op command carrying a leader lease renewal through the log.
LEASE_OP = "@lease"

#: Outcome status tags stored in the per-session response cache.
OK = "ok"
ERROR = "error"


def session_command(
    client_id: str,
    seq_no: int,
    first_unacked: int,
    op: str,
    args: Tuple[Any, ...],
    trace: bool = False,
) -> Command:
    """Wrap a client request in the replicated session envelope.

    ``trace`` rides as an optional sixth envelope element so the
    *applying* replica can emit the ``applied`` request-trace event —
    omitted when off, keeping untraced envelopes byte-identical to the
    pre-tracing format (and replica snapshots unaffected either way:
    the flag never touches the dedup table).
    """
    envelope: Tuple[Any, ...] = (client_id, seq_no, first_unacked, op, list(args))
    if trace:
        envelope = envelope + (True,)
    return Command(SESSION_OP, envelope)


def lease_command(node_id: int, submit_time: float) -> Command:
    """A lease renewal: no-op at apply, observed by every server."""
    return Command(LEASE_OP, (node_id, submit_time))


#: Upcall on every *first* application of a session command:
#: (client_id, seq_no, op, args, outcome, applied_index).
SessionApplyCallback = Callable[[str, int, str, Tuple[Any, ...], Tuple[str, Any], int], None]

#: Upcall on the first application of a *traced* session command
#: (envelope trace flag set): (client_id, seq_no, applied_index).
TracedApplyCallback = Callable[[str, int, int], None]

#: Upcall on every applied lease renewal: (node_id, submit_time).
LeaseApplyCallback = Callable[[int, float], None]


@dataclass
class SessionState:
    """Replicated per-client dedup state.

    ``floor`` — every seq ≤ floor has been applied; results at or below
    it may have been pruned.  ``results`` — cached outcomes for applied
    seqs above the floor, kept until the client acks past them.
    ``high`` — internal: the highest seq ever recorded, so
    :meth:`applied_seq` needs no scan.  Derived from ``results`` (never
    snapshotted, rebuilt on construction) and kept in step only by
    :meth:`record`; mutate ``results`` through ``record``/``prune``,
    not by hand.
    """

    floor: int = 0
    results: Dict[int, Tuple[str, Any]] = field(default_factory=dict)
    high: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        self.high = max(self.results, default=0)

    def lookup(self, seq_no: int) -> Optional[Tuple[str, Any]]:
        """Cached outcome for ``seq_no``, or None if never applied.

        A pruned-but-applied seq (≤ floor, not cached) returns an ERROR
        outcome: the client already acked it, so a well-behaved client
        never asks; answering with an error beats re-executing.
        """
        cached = self.results.get(seq_no)
        if cached is not None:
            return cached
        if seq_no <= self.floor:
            return (ERROR, "response pruned: request was already acknowledged")
        return None

    def record(self, seq_no: int, outcome: Tuple[str, Any]) -> None:
        self.results[seq_no] = outcome
        if seq_no > self.high:
            self.high = seq_no

    def prune(self, first_unacked: int) -> None:
        """Advance the floor to the client's own ack cursor."""
        new_floor = first_unacked - 1
        if new_floor <= self.floor:
            return
        results = self.results
        if new_floor - self.floor <= len(results):
            # The usual step: the cursor moved by a request or two.
            for seq in range(self.floor + 1, new_floor + 1):
                results.pop(seq, None)
        else:  # a jump past the whole cache (or a hostile cursor)
            for seq in [s for s in results if s <= new_floor]:
                del results[seq]
        self.floor = new_floor

    def applied_seq(self) -> int:
        """Highest seq this session has applied (floor or cached)."""
        return max(self.floor, self.high)


class SessionMachine(StateMachine):
    """State machine wrapper adding exactly-once session semantics.

    Wraps any inner :class:`StateMachine` (typically
    :class:`~repro.smr.kvstore.KVStore`).  Non-session commands pass
    through untouched, so a ``SessionMachine`` can coexist with plain
    RSM traffic.
    """

    def __init__(self, inner: StateMachine) -> None:
        self.inner = inner
        self.sessions: Dict[str, SessionState] = {}
        #: Total commands applied through this machine (incl. dedup hits).
        self.applied_index = 0
        #: Session commands whose inner op actually executed.
        self.session_applies = 0
        #: Session commands answered from the dedup table.
        self.dedup_hits = 0
        #: Lease renewals applied.
        self.lease_applies = 0
        self._session_callbacks: List[SessionApplyCallback] = []
        self._traced_callbacks: List[TracedApplyCallback] = []
        self._lease_callbacks: List[LeaseApplyCallback] = []

    # -- observation ---------------------------------------------------
    def on_session_apply(self, callback: SessionApplyCallback) -> None:
        """Observe the *first* application of each session command."""
        self._session_callbacks.append(callback)

    def on_traced_apply(self, callback: TracedApplyCallback) -> None:
        """Observe first applications of trace-flagged envelopes."""
        self._traced_callbacks.append(callback)

    def on_lease_apply(self, callback: LeaseApplyCallback) -> None:
        """Observe every lease renewal in the total order."""
        self._lease_callbacks.append(callback)

    def lookup(self, client_id: str, seq_no: int) -> Optional[Tuple[str, Any]]:
        """Cached outcome for a session request, or None if unapplied."""
        session = self.sessions.get(client_id)
        if session is None:
            return None
        return session.lookup(seq_no)

    def session_applied_seq(self, client_id: str) -> int:
        """Highest applied seq for ``client_id`` on this replica (0 if none)."""
        session = self.sessions.get(client_id)
        return session.applied_seq() if session is not None else 0

    # -- StateMachine --------------------------------------------------
    READ_ONLY_OPS = frozenset()  # session envelopes always mutate the table

    def apply(self, command: Command) -> Any:
        op = command.op
        if op == SESSION_OP:
            self.applied_index += 1
            return self._apply_session(command)
        if op == BATCH_OP:
            # Never reached under a ReplicatedStateMachine, whose
            # delivery path has already unpacked the batch: only a
            # machine fed what the server submits directly (the
            # apply-on-submit test and bench stand-ins) lands here.
            return [self.apply(sub) for sub in unbatch(command)]
        self.applied_index += 1
        if op == LEASE_OP:
            return self._apply_lease(command)
        return self.inner.apply(command)

    def _apply_session(self, command: Command) -> Tuple[str, Any]:
        # The envelope is 5 elements, or 6 with the optional trace flag
        # appended — old and new replicas decode each other's commands.
        trace = False
        envelope = command.args
        if len(envelope) == 6:
            envelope, trace = envelope[:5], bool(envelope[5])
        try:
            client_id, seq_no, first_unacked, op, args = envelope
        except ValueError as exc:
            raise ProtocolError(
                f"malformed session envelope: {command.args!r}"
            ) from exc
        if not isinstance(seq_no, int) or isinstance(seq_no, bool) or seq_no < 1:
            raise ProtocolError(f"session seq_no must be a positive int: {seq_no!r}")
        session = self.sessions.get(client_id)
        if session is None:
            session = self.sessions[client_id] = SessionState()
        session.prune(first_unacked)
        cached = session.lookup(seq_no)
        if cached is not None:
            self.dedup_hits += 1
            return cached
        try:
            result = self.inner.apply(Command(op, tuple(args)))
            outcome = (OK, result)
        except ProtocolError as exc:
            # Deterministic rejection: cache it so the retry sees the
            # same error instead of a second execution attempt.
            outcome = (ERROR, str(exc))
        session.record(seq_no, outcome)
        self.session_applies += 1
        for callback in list(self._session_callbacks):
            callback(client_id, seq_no, op, tuple(args), outcome, self.applied_index)
        if trace:
            for traced in list(self._traced_callbacks):
                traced(client_id, seq_no, self.applied_index)
        return outcome

    def _apply_lease(self, command: Command) -> None:
        try:
            node_id, submit_time = command.args
        except ValueError as exc:
            raise ProtocolError(f"malformed lease command: {command.args!r}") from exc
        self.lease_applies += 1
        for callback in list(self._lease_callbacks):
            callback(node_id, submit_time)
        return None

    def local_read(self, command: Command) -> Any:
        """Read-only pass-through against the inner machine.

        Bypasses :meth:`apply` so local reads never bump
        ``applied_index`` (which must stay identical across replicas).
        """
        read_only = getattr(self.inner, "READ_ONLY_OPS", frozenset())
        if command.op not in read_only:
            raise ProtocolError(
                f"{command.op!r} is not declared read-only by "
                f"{type(self.inner).__name__}"
            )
        return self.inner.apply(command)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "inner": self.inner.snapshot(),
            "applied_index": self.applied_index,
            "sessions": {
                client: {
                    "floor": state.floor,
                    "results": {
                        str(seq): list(outcome)
                        for seq, outcome in sorted(state.results.items())
                    },
                }
                for client, state in sorted(self.sessions.items())
            },
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Rebuild machine state from a :meth:`snapshot` payload."""
        restore_inner = getattr(self.inner, "restore", None)
        if restore_inner is None:
            raise ProtocolError(
                f"{type(self.inner).__name__} does not support restore()"
            )
        restore_inner(snapshot["inner"])
        self.applied_index = snapshot["applied_index"]
        self.sessions = {
            client: SessionState(
                floor=state["floor"],
                results={
                    int(seq): (outcome[0], outcome[1])
                    for seq, outcome in state["results"].items()
                },
            )
            for client, state in snapshot["sessions"].items()
        }
