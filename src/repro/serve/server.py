"""The per-node asyncio session server.

One :class:`SessionServer` runs inside every live node (when the
cluster is launched with ``serve=True``).  It accepts pipelined,
length-prefixed requests from client sessions and answers each one via
one of three paths:

* **cached** — the replicated dedup table already holds the outcome
  for ``(client, seq)``: answer from the cache, never re-execute.
* **local** — the request is read-only, this node holds the leader
  lease, and the replicated session table already reflects the
  client's ``barrier`` (session monotonic reads): serve from the local
  replica without a ring round-trip.
* **ordered** — everything else: wrap the request in a session
  envelope, TO-broadcast it, and respond when the total order applies
  it here.  Envelopes are not broadcast one by one: everything this
  server decoded in one event-loop turn rides a single ``@batch``
  broadcast (group commit, DESIGN.md §5h) — an idle server sees
  batches of one, a saturated one whatever piled up in its sockets
  while it was busy, with no timer and no knob.

Each client connection is a :class:`_Connection` protocol: every request
of a received chunk is decoded and dispatched inside the callback, and
the responses a loop turn produces for one connection leave in one
socket write — the same turn-bounded rule as group commit (DESIGN.md
§5h).  A client that stops reading stops being read: once its
transport's buffer passes the high-water mark the connection pauses
reading until it drains.

Every *first* application of a session command is journalled (type
``"apply"``), so a SIGKILLed node still leaves its applied sequence
behind — the serve chaos battery replays those journals to prove no
acknowledged write was lost or doubly applied.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import logging
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import CodecError, ReproError
from repro.live.scheduler import AsyncioScheduler
from repro.obs.reqtrace import RequestLog
from repro.obs.telemetry import Telemetry
from repro.serve.lease import LeaderLease
from repro.serve.session import SessionMachine, lease_command, session_command
from repro.serve.wire import (
    FrameSlicer,
    Request,
    Response,
    decode_request,
    encode_response,
)
from repro.smr.machine import Command, ReplicatedStateMachine, batch_command
from repro.types import ProcessId, View

logger = logging.getLogger(__name__)

#: Renewals per lease period; 3 keeps the lease alive across one lost
#: renewal without ever serving from an expired one.
_RENEWALS_PER_LEASE = 3

#: Cap on one ``@batch`` broadcast, counted in the wire-frame bytes of
#: the requests it carries — known for free, where the envelope's own
#: size would cost a second JSON encode per request.  An envelope drops
#: the frame's field names and adds at most a space per separator, so
#: for ASCII-escaped frames (what ``serve.client`` sends) it is under
#: 1.5x its frame and a full batch stays under the 100 KB message the
#: paper (and ``ring_large_sat``) moves in one piece.  A lone request is
#: never split, whatever its size.
MAX_BATCH_BYTES = 60_000

#: One ordered request waiting for the next flush:
#: (envelope, (client, seq), traced, waiter).
_Pending = Tuple[Command, Tuple[str, int], bool, "asyncio.Future"]


def snapshot_hash(snapshot: Any) -> str:
    """Stable short digest of a machine snapshot, for cross-replica
    state-equality checks in the invariant battery."""
    encoded = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


class SessionServer:
    """Client-facing TCP front end of one replica."""

    def __init__(
        self,
        node_id: ProcessId,
        rsm: ReplicatedStateMachine,
        machine: SessionMachine,
        lease: LeaderLease,
        sched: AsyncioScheduler,
        telemetry: Optional[Telemetry] = None,
        journal: Optional[Callable[[Dict[str, Any]], None]] = None,
        reqlog: Optional[RequestLog] = None,
    ) -> None:
        self.node_id = node_id
        self.rsm = rsm
        self.machine = machine
        self.lease = lease
        self.sched = sched
        self.telemetry = telemetry or Telemetry()
        self._journal = journal
        # `is None`, not `or`: the caller's log is used whatever it holds.
        self.reqlog = reqlog if reqlog is not None else RequestLog(enabled=False)
        #: MessageId -> [(client, seq)] of the traced requests riding
        #: that in-flight broadcast, so the node's delivery hook can
        #: stamp their ``ordered`` boundary.
        self._proposed: Dict[Any, List[Tuple[str, int]]] = {}
        #: Keys whose ``ordered`` stamp this node emitted: the same
        #: node emits ``applied``, so stage boundaries share one clock.
        self._ordered_keys: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._view: Optional[View] = None
        self._waiters: Dict[Tuple[str, int], List[asyncio.Future]] = {}
        #: Ordered requests decoded since the last flush (non-empty means
        #: a flush callback is scheduled) and their wire-frame bytes.
        self._pending: List[_Pending] = []
        self._pending_bytes = 0
        self._connections: Set[_Connection] = set()
        self._renew_handle: Optional[Any] = None
        self._closed = False
        self._requests = self.telemetry.counter("serve_requests")
        self._cached = self.telemetry.counter("serve_cached")
        self._local = self.telemetry.counter("serve_local_reads")
        self._ordered = self.telemetry.counter("serve_ordered")
        self._lease_rejects = self.telemetry.counter("serve_lease_rejects")
        self._barrier_rejects = self.telemetry.counter("serve_barrier_rejects")
        self._batches = self.telemetry.counter("serve_batches")
        self._batch_commands = self.telemetry.histogram("serve_batch_commands")
        self._rx_chunks = self.telemetry.counter("serve_rx_chunks")
        self._requests_per_chunk = self.telemetry.histogram(
            "serve_requests_per_chunk"
        )
        self._responses_per_write = self.telemetry.histogram(
            "serve_responses_per_write"
        )
        machine.on_session_apply(self._on_session_apply)
        machine.on_traced_apply(self._on_traced_apply)
        machine.on_lease_apply(self._on_lease_apply)

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str, port: int) -> None:
        self._server = await self.sched.loop.create_server(
            lambda: _Connection(self), host, port
        )
        self._renew_tick()
        logger.info("session server %d listening on %s:%d", self.node_id, host, port)

    async def close(self) -> None:
        self._closed = True
        if self._renew_handle is not None:
            self._renew_handle.cancel()
            self._renew_handle = None
        if self._server is not None:
            self._server.close()
            # Unsent responses go with the connections: their clients
            # resend on the next server they reach.
            for conn in list(self._connections):
                conn.transport.abort()
            await self._server.wait_closed()
            self._server = None
        for waiters in self._waiters.values():
            for fut in waiters:
                if not fut.done():
                    fut.cancel()
        self._waiters.clear()
        self._pending.clear()
        self._pending_bytes = 0

    # -- membership / lease -------------------------------------------
    def on_view(self, view: View) -> None:
        """Track a view install (called by the node's rewire hook)."""
        self._view = view
        was_leader = self.lease.leader == self.node_id
        logger.info(
            "server %d installed view %d (members=%s, leader=%s)",
            self.node_id, view.view_id, list(view.members), self.lease.leader,
        )
        self.lease.on_view(view)
        if self.lease.leader == self.node_id and not was_leader:
            # Don't submit from inside the membership install path; the
            # first renewal goes out on the next loop iteration.
            self.sched.loop.call_soon(self._renew_once)

    def _renew_once(self) -> None:
        if self._closed or self.lease.leader != self.node_id:
            return
        try:
            self.rsm.submit(lease_command(self.node_id, self.sched.now))
        except ReproError as exc:  # blocked mid view change: next tick retries
            logger.debug("lease renewal submit failed: %s", exc)

    def _renew_tick(self) -> None:
        if self._closed:
            return
        self._renew_once()
        self._renew_handle = self.sched.schedule(
            self.lease.lease_s / _RENEWALS_PER_LEASE, self._renew_tick
        )

    def _on_lease_apply(self, node_id: ProcessId, submit_time: float) -> None:
        self.lease.note_renewal(node_id, submit_time)

    # -- request tracing -----------------------------------------------
    def _trace(
        self,
        kind: str,
        client: str,
        seq: int,
        origin: Optional[int] = None,
        local_seq: Optional[int] = None,
    ) -> None:
        self.reqlog.emit(
            self.sched.now, self.node_id, kind, client, seq,
            origin=origin, local_seq=local_seq,
        )

    def note_ordered(self, message_id: Any) -> None:
        """Stamp the ``ordered`` boundary for a traced proposal.

        Called by the node's delivery hook just before the RSM applies
        a serve payload: the time the total order handed the envelope
        back is the replication/apply stage boundary.
        """
        for key in self._proposed.pop(message_id, ()):
            self._ordered_keys.add(key)
            self._trace(
                "ordered", key[0], key[1],
                origin=getattr(message_id, "origin", None),
                local_seq=getattr(message_id, "local_seq", None),
            )

    def _on_traced_apply(
        self, client_id: str, seq_no: int, applied_index: int
    ) -> None:
        key = (client_id, seq_no)
        if key in self._ordered_keys:
            self._ordered_keys.discard(key)
            self._trace("applied", client_id, seq_no)

    # -- apply side ----------------------------------------------------
    def _on_session_apply(
        self,
        client_id: str,
        seq_no: int,
        op: str,
        args: Tuple[Any, ...],
        outcome: Tuple[str, Any],
        applied_index: int,
    ) -> None:
        if self._journal is not None:
            self._journal({
                "type": "apply",
                "client": client_id,
                "seq": seq_no,
                "op": op,
                "status": outcome[0],
                "index": applied_index,
                "time": self.sched.now,
            })
        waiters = self._waiters.pop((client_id, seq_no), None)
        if waiters:
            for fut in waiters:
                if not fut.done():
                    fut.set_result(outcome)

    # -- request handling ----------------------------------------------
    def _unavailable(self, request: Request, exc: Exception) -> Response:
        """Transport-level failure (e.g. broadcast rejected during a view
        change): tell the client to retry, possibly elsewhere."""
        logger.debug(
            "server %d: %s#%d unavailable: %s",
            self.node_id, request.client, request.seq, exc,
        )
        return self._response(
            request, ok=False, error=f"unavailable: {exc}", served="ordered"
        )

    def _response(
        self,
        request: Request,
        ok: bool,
        result: Any = None,
        error: Optional[str] = None,
        served: str = "ordered",
    ) -> Response:
        view = self._view
        return Response(
            seq=request.seq,
            ok=ok,
            result=result,
            error=error,
            served=served,
            leader=self.lease.leader,
            view_id=view.view_id if view is not None else self.lease.view_id,
        )

    def _from_outcome(
        self, request: Request, outcome: Tuple[str, Any], served: str
    ) -> Response:
        status, value = outcome
        if status == "ok":
            return self._response(request, ok=True, result=value, served=served)
        return self._response(request, ok=False, error=value, served=served)

    def _dispatch(
        self, request: Request, conn: "_Connection", frame_bytes: int = 0
    ) -> None:
        """Answer one request on ``conn``: at once from the cache or the
        local replica, or once the total order applies it.
        ``frame_bytes`` is the size of the wire frame it came in
        (counted against the batch byte cap)."""
        self._requests.inc()
        client, seq = request.client, request.seq
        traced = self.reqlog.enabled and request.trace
        cached = self.machine.lookup(client, seq)
        if cached is not None:
            self._cached.inc()
            if traced:
                self._trace("cached", client, seq)
            conn.respond(request, self._from_outcome(request, cached, "cached"))
            return
        read_only_ops = getattr(self.machine.inner, "READ_ONLY_OPS", frozenset())
        if request.op in read_only_ops and not request.ordered:
            if not self.lease.holds():
                self._lease_rejects.inc()
                if traced:
                    self._trace("ordered_fallback", client, seq)
            elif self.machine.session_applied_seq(client) < request.barrier:
                # Session monotonic reads: our replica has not yet
                # applied everything this client saw acked — an ordered
                # read is the only safe answer.
                self._barrier_rejects.inc()
                if traced:
                    self._trace("ordered_fallback", client, seq)
            else:
                self._local.inc()
                if traced:
                    self._trace("local_read", client, seq)
                result = self.machine.local_read(
                    Command(request.op, request.args)
                )
                conn.respond(request, self._response(
                    request, ok=True, result=result, served="local"
                ))
                return
        # Ordered path: through the total order, exactly once.
        fut: asyncio.Future = self.sched.loop.create_future()
        key = (client, seq)
        self._waiters.setdefault(key, []).append(fut)
        if traced:
            self._trace("enqueued", client, seq)
        self._enqueue(
            session_command(
                client, seq, request.first_unacked, request.op,
                request.args, trace=request.trace,
            ),
            key, traced, fut, frame_bytes,
        )
        self._ordered.inc()
        fut.add_done_callback(functools.partial(self._answer, request, conn))

    def _answer(
        self, request: Request, conn: "_Connection", fut: asyncio.Future
    ) -> None:
        """Done-callback of an ordered request's waiter."""
        key = (request.client, request.seq)
        waiters = self._waiters.get(key)
        if waiters is not None:
            if fut in waiters:
                waiters.remove(fut)
            if not waiters:
                del self._waiters[key]
        if fut.cancelled():
            return  # server closing
        exc = fut.exception()
        if exc is not None:
            conn.respond(request, self._unavailable(request, exc))
        else:
            conn.respond(
                request, self._from_outcome(request, fut.result(), "ordered")
            )

    # -- group commit --------------------------------------------------
    def _enqueue(
        self,
        command: Command,
        key: Tuple[str, int],
        traced: bool,
        fut: asyncio.Future,
        size: int,
    ) -> None:
        """Queue one envelope for this loop turn's broadcast.

        The first envelope of a turn schedules the flush; the connection
        tasks that run before it add theirs to the same batch.
        """
        if self._pending and self._pending_bytes + size > MAX_BATCH_BYTES:
            self._submit_pending()  # full: goes out now, the rest follows
        if not self._pending:
            self.sched.loop.call_soon(self._flush)
        self._pending.append((command, key, traced, fut))
        self._pending_bytes += size

    def _flush(self) -> None:
        # Empty when a full batch went out early and nothing followed.
        if self._pending:
            self._submit_pending()

    def _submit_pending(self) -> None:
        """TO-broadcast everything pending as one command."""
        batch, self._pending, self._pending_bytes = self._pending, [], 0
        try:
            message_id = self.rsm.submit(
                batch_command([command for command, _k, _t, _f in batch])
            )
        except ReproError as exc:
            # Broadcast rejected (view change in progress): every
            # request of the batch answers ``unavailable``, as one
            # submitted alone would have.
            for _command, _key, _traced, fut in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        self._batches.inc()
        self._batch_commands.observe(len(batch))
        for _command, key, traced, _fut in batch:
            if traced:
                # The submit return is the broadcast MessageId — the
                # join key onto the message-lifecycle spans, shared by
                # the whole batch.  Test harness RSMs may return None
                # (apply-on-submit).
                if message_id is not None:
                    self._proposed.setdefault(message_id, []).append(key)
                self._trace(
                    "proposed", key[0], key[1],
                    origin=getattr(message_id, "origin", None),
                    local_seq=getattr(message_id, "local_seq", None),
                )

    # -- reporting -----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """JSON-able serving summary for the node's result record."""
        return {
            "requests": self._requests.value,
            "cached": self._cached.value,
            "local_reads": self._local.value,
            "ordered": self._ordered.value,
            "lease_rejects": self._lease_rejects.value,
            "barrier_rejects": self._barrier_rejects.value,
            "batches": self._batches.value,
            "batch_commands": self._batch_commands.summary(),
            "rx_chunks": self._rx_chunks.value,
            "requests_per_chunk": self._requests_per_chunk.summary(),
            "responses_per_write": self._responses_per_write.summary(),
            "dedup_hits": self.machine.dedup_hits,
            "session_applies": self.machine.session_applies,
            "lease_applies": self.machine.lease_applies,
            "sessions": len(self.machine.sessions),
            "applied_index": self.machine.applied_index,
            "snapshot_hash": snapshot_hash(self.machine.snapshot()),
        }


class _Connection(asyncio.Protocol):
    """One client connection: requests in, each turn's responses out.

    Every request of a received chunk is decoded and dispatched inside
    :meth:`data_received`.  A response joins the connection's out-list;
    the first one of a loop turn schedules the single
    ``transport.write`` that carries them all.
    """

    def __init__(self, server: SessionServer) -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self._slicer = FrameSlicer()
        #: Encoded responses of this turn (non-empty means a write is
        #: scheduled) and the traced requests among them.
        self._out: List[bytes] = []
        self._traced: List[Tuple[str, int]] = []

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        server = self.server
        server._rx_chunks.inc()
        requests = 0
        try:
            for body in self._slicer.feed(data):
                request = decode_request(body)
                requests += 1
                if server.reqlog.enabled and request.trace:
                    server._trace("recv", request.client, request.seq)
                try:
                    server._dispatch(request, self, len(body))
                except ReproError as exc:
                    self.respond(request, server._unavailable(request, exc))
        except CodecError as exc:
            logger.warning("bad request frame: %s", exc)
            self.transport.close()
        server._requests_per_chunk.observe(requests)

    def respond(self, request: Request, response: Response) -> None:
        """Queue ``response`` for this turn's write."""
        if not self._out:
            self.server.sched.loop.call_soon(self._write)
        self._out.append(encode_response(response))
        if request.trace and self.server.reqlog.enabled:
            self._traced.append((request.client, request.seq))

    def _write(self) -> None:
        out, self._out = self._out, []
        traced = self._traced
        if traced:
            self._traced = []
        if self.transport.is_closing():
            return  # client gone; it resends on its next connection
        self.transport.write(b"".join(out))
        server = self.server
        server._responses_per_write.observe(len(out))
        for client, seq in traced:
            server._trace("responded", client, seq)

    # Backpressure: a client that does not read its responses is not
    # read either.  The requests of the chunk being dispatched still
    # answer, so the buffer peaks at the high-water mark plus one turn.
    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
