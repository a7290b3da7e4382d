"""Pipelining session client with retry and failover.

One :class:`SessionClient` is one session: a ``client_id`` plus a
monotonically increasing per-request ``seq``.  Requests may be
pipelined (``submit`` returns a future immediately); responses are
matched back by ``seq``.  When a connection dies — or a request sits
unanswered past ``retry_timeout_s`` — the client rotates to the next
server address, reconnects, and **resends every pending request in seq
order**.  The server-side dedup table makes those resends safe: a
request that was already applied is answered from the replicated cache
("cached"), never executed twice.  One failover runs at a time: a
trigger that fires while one is under way does nothing (a rejected
``@batch`` answers each of its requests ``unavailable`` in one write,
and the one failover resends them all).

The connection is a :class:`_Connection` protocol, the server's mirror
image: the requests of one loop turn leave in one socket write, and
every response of a received chunk is handled inside the callback.

Session-read metadata maintained here:

* ``first_unacked`` — lowest seq not yet acked; sent on every request
  so servers can prune their response caches (and their floor).
* ``barrier`` — highest seq seen acked; sent on reads so a lease
  holder only serves locally once its replica reflects this client's
  own writes (session monotonic reads).
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import CodecError, NetworkError
from repro.obs.reqtrace import CLIENT_NODE, RequestLog
from repro.serve.wire import (
    FrameSlicer,
    Request,
    Response,
    decode_response,
    encode_request,
)

logger = logging.getLogger(__name__)

#: How often the failover monitor checks for a stuck oldest request.
_MONITOR_S = 0.05


class SessionClient:
    """One exactly-once client session over the serve cluster."""

    def __init__(
        self,
        client_id: str,
        addresses: List[Tuple[str, int]],
        *,
        retry_timeout_s: float = 1.0,
        connect_timeout_s: float = 2.0,
        reconnect_backoff_s: float = 0.05,
        prefer: int = 0,
        ordered_reads: bool = False,
        reqlog: Optional[RequestLog] = None,
    ) -> None:
        if not addresses:
            raise NetworkError("session client needs at least one server address")
        self.client_id = client_id
        self.addresses = list(addresses)
        self.retry_timeout_s = retry_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.reconnect_backoff_s = reconnect_backoff_s
        self.ordered_reads = ordered_reads
        #: Request tracing: when set (and enabled), requests go out with
        #: the wire ``trace`` flag and this log records ``send`` /
        #: ``acked`` stamps plus ``failover_resend`` markers.
        # `is None`, not `or`: an enabled-but-empty RequestLog is falsy
        # (it has __len__), and must not be swapped for a disabled one.
        self.reqlog = reqlog if reqlog is not None else RequestLog(enabled=False)
        self._addr_index = prefer % len(addresses)
        self._next_seq = 1
        self._barrier = 0
        #: seq -> (request dict sans cursors, future, submit walltime)
        self._pending: "Dict[int, _PendingRequest]" = {}
        self._conn: Optional[_Connection] = None
        self._monitor_task: Optional[asyncio.Task] = None
        #: The failover under way, if any (at most one per session).
        self._failover_task: Optional[asyncio.Task] = None
        self._conn_lock = asyncio.Lock()
        self._closed = False
        # -- client-visible session metrics --
        self.acks = 0
        self.retries = 0
        self.reconnects = 0
        self.cached_responses = 0
        self.local_reads = 0
        self.errors = 0
        #: (seq, op, args) of every acknowledged mutating request, in
        #: ack order — the chaos battery's ground truth.
        self.acked_writes: List[Tuple[int, str, Tuple[Any, ...]]] = []

    # -- public API ----------------------------------------------------
    @property
    def barrier(self) -> int:
        return self._barrier

    @property
    def first_unacked(self) -> int:
        return min(self._pending, default=self._next_seq)

    async def connect(self) -> None:
        await self._ensure_connected()
        if self._monitor_task is None:
            self._monitor_task = asyncio.ensure_future(self._monitor())

    def submit(self, op: str, *args: Any, ordered: bool = False) -> "asyncio.Future[Response]":
        """Pipeline a request; the future resolves with its Response."""
        if self._closed:
            raise NetworkError("session client is closed")
        seq = self._next_seq
        self._next_seq += 1
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = _PendingRequest(
            seq=seq,
            op=op,
            args=tuple(args),
            ordered=ordered or (self.ordered_reads and op == "get"),
            future=fut,
            submit_time=asyncio.get_running_loop().time(),
        )
        self._pending[seq] = entry
        if self.reqlog.enabled:
            # Stamp at submit (not the wire write) so the trace shares
            # the load generator's latency clock start.
            self.reqlog.emit(
                entry.submit_time, CLIENT_NODE, "send", self.client_id, seq
            )
        self._send(entry)
        return fut

    async def request(self, op: str, *args: Any, ordered: bool = False) -> Response:
        """Submit and await one request."""
        return await self.submit(op, *args, ordered=ordered)

    async def resend(self, seq: Optional[int] = None) -> None:
        """Force a duplicate send of a request (testing hook).

        With ``seq`` of an *acked* request, fabricates a fresh duplicate
        on the wire and awaits its (cached) response — used by the
        conformance and dedup tests to prove re-sent acked requests are
        answered from the cache without a second application.
        """
        if seq is None:
            for entry in sorted(self._pending.values(), key=lambda e: e.seq):
                self.retries += 1
                self._send(entry)
            return
        entry = self._pending.get(seq)
        if entry is not None:
            self.retries += 1
            self._send(entry)
            return
        raise NetworkError(f"seq {seq} is not pending; use duplicate() for acked seqs")

    async def duplicate(self, seq: int, op: str, *args: Any) -> Response:
        """Re-send an already-acked request verbatim and await the reply."""
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = _PendingRequest(
            seq=seq,
            op=op,
            args=tuple(args),
            ordered=False,
            future=fut,
            submit_time=asyncio.get_running_loop().time(),
            count_ack=False,
        )
        self._pending[seq] = entry
        self.retries += 1
        self._send(entry)
        return await fut

    async def close(self) -> None:
        self._closed = True
        tasks = [t for t in (self._monitor_task, self._failover_task) if t is not None]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._monitor_task = None
        self._failover_task = None
        await self._teardown_connection()
        for entry in self._pending.values():
            if not entry.future.done():
                entry.future.cancel()
        self._pending.clear()

    # -- connection management ----------------------------------------
    async def _ensure_connected(self) -> None:
        async with self._conn_lock:
            if self._conn is not None or self._closed:
                return
            loop = asyncio.get_running_loop()
            last_error: Optional[Exception] = None
            for attempt in range(3 * len(self.addresses)):
                host, port = self.addresses[self._addr_index]
                try:
                    _transport, self._conn = await asyncio.wait_for(
                        loop.create_connection(
                            lambda: _Connection(self), host, port
                        ),
                        self.connect_timeout_s,
                    )
                    return
                except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                    last_error = exc
                    self._addr_index = (self._addr_index + 1) % len(self.addresses)
                    await asyncio.sleep(self.reconnect_backoff_s)
            raise NetworkError(
                f"client {self.client_id}: no server reachable: {last_error}"
            )

    async def _teardown_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.transport.close()
            await conn.closed

    def _start_failover(self) -> None:
        """Fail over unless a failover is already under way."""
        if not self._closed and self._failover_task is None:
            self._failover_task = asyncio.ensure_future(self._failover())

    async def _failover(self) -> None:
        """Drop the connection, rotate servers, reconnect, resend."""
        try:
            self.reconnects += 1
            await self._teardown_connection()
            self._addr_index = (self._addr_index + 1) % len(self.addresses)
            logger.info(
                "client %s: failing over to %s:%d (%d pending)",
                self.client_id, *self.addresses[self._addr_index],
                len(self._pending),
            )
            try:
                await self._ensure_connected()
            except NetworkError as exc:
                logger.warning("client %s failover failed: %s", self.client_id, exc)
                return
            self._resend_pending()
        finally:
            self._failover_task = None

    def _resend_pending(self) -> None:
        for entry in sorted(self._pending.values(), key=lambda e: e.seq):
            self.retries += 1
            if self.reqlog.enabled:
                self.reqlog.emit(
                    asyncio.get_running_loop().time(), CLIENT_NODE,
                    "failover_resend", self.client_id, entry.seq,
                )
            self._send(entry)

    def _send(self, entry: "_PendingRequest") -> None:
        conn = self._conn
        if conn is None:
            return  # failover in progress; _resend_pending will retry
        conn.send(encode_request(Request(
            self.client_id, entry.seq, self.first_unacked, self._barrier,
            entry.op, entry.args, entry.ordered, self.reqlog.enabled,
        )))

    # -- connection upcalls --------------------------------------------
    def _on_connection_lost(self, conn: "_Connection") -> None:
        if conn is self._conn:  # not one we tore down ourselves
            self._start_failover()

    def _on_response(self, response: Response) -> None:
        entry = self._pending.pop(response.seq, None)
        if entry is None:
            return  # duplicate ack from a resend; already settled
        if response.served == "cached":
            self.cached_responses += 1
        elif response.served == "local":
            self.local_reads += 1
        if not response.ok and response.error and response.error.startswith("unavailable:"):
            # Transport-level rejection, not a deterministic outcome:
            # leave it pending and retry elsewhere.
            self._pending[response.seq] = entry
            self._start_failover()
            return
        if entry.count_ack:
            self.acks += 1
            if response.served != "local":
                # Only what the session table records can be a barrier:
                # a local read is never applied, so no replica would
                # ever reach it (DESIGN.md §5h).
                self._barrier = max(self._barrier, response.seq)
            if not response.ok:
                self.errors += 1
            elif entry.op not in ("get",):
                self.acked_writes.append((entry.seq, entry.op, entry.args))
        if self.reqlog.enabled:
            self.reqlog.emit(
                asyncio.get_running_loop().time(), CLIENT_NODE,
                "acked", self.client_id, response.seq,
            )
        if not entry.future.done():
            entry.future.set_result(response)

    # -- background task -----------------------------------------------
    async def _monitor(self) -> None:
        """Fail over when the oldest pending request is stuck."""
        try:
            while not self._closed:
                await asyncio.sleep(_MONITOR_S)
                if not self._pending:
                    continue
                now = asyncio.get_running_loop().time()
                oldest = min(self._pending.values(), key=lambda e: e.sent_or_submit())
                if now - oldest.sent_or_submit() >= self.retry_timeout_s:
                    oldest.last_resend = now
                    self._start_failover()
        except asyncio.CancelledError:
            return


class _Connection(asyncio.Protocol):
    """The session's connection to one server.

    The requests of one loop turn leave in a single ``transport.write``
    (the first :meth:`send` of a turn schedules it); every response of
    a received chunk is decoded and handed to the session inside
    :meth:`data_received`.
    """

    def __init__(self, client: SessionClient) -> None:
        self.client = client
        self.transport: Optional[asyncio.Transport] = None
        self._loop = asyncio.get_running_loop()
        #: Resolved once the connection is gone, however it went.
        self.closed: asyncio.Future = self._loop.create_future()
        self._slicer = FrameSlicer()
        #: Encoded requests of this turn (non-empty: a write is scheduled).
        self._out: List[bytes] = []

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.closed.done():
            self.closed.set_result(None)
        self.client._on_connection_lost(self)

    def data_received(self, data: bytes) -> None:
        try:
            for body in self._slicer.feed(data):
                self.client._on_response(decode_response(body))
        except CodecError as exc:
            logger.warning("client %s: bad response: %s", self.client.client_id, exc)
            self.transport.close()

    def send(self, frame: bytes) -> None:
        if not self._out:
            self._loop.call_soon(self._write)
        self._out.append(frame)

    def _write(self) -> None:
        out, self._out = self._out, []
        if not self.transport.is_closing():
            self.transport.write(b"".join(out))


class _PendingRequest:
    """One in-flight request, retained until its ack arrives."""

    __slots__ = ("seq", "op", "args", "ordered", "future", "submit_time",
                 "last_resend", "count_ack")

    def __init__(
        self,
        seq: int,
        op: str,
        args: Tuple[Any, ...],
        ordered: bool,
        future: asyncio.Future,
        submit_time: float,
        count_ack: bool = True,
    ) -> None:
        self.seq = seq
        self.op = op
        self.args = args
        self.ordered = ordered
        self.future = future
        self.submit_time = submit_time
        self.last_resend: Optional[float] = None
        self.count_ack = count_ack

    def sent_or_submit(self) -> float:
        return self.last_resend if self.last_resend is not None else self.submit_time
