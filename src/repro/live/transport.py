"""Asyncio ring transport: one persistent TCP connection per ring hop.

FSR's data plane is a unidirectional ring — every process sends data
only to its ring successor — so the live transport keeps exactly one
persistent outbound TCP connection (to the successor) and accepts one
inbound connection (from the predecessor).  TCP provides the reliable
FIFO channel the paper assumes; what this module adds is:

* length-prefixed framing via :mod:`repro.live.codec`;
* a ``Hello`` greeting identifying the connecting node, so the receive
  upcall carries the true source id;
* reconnect with capped exponential backoff, giving up after the same
  ``MAX_RETRIES`` budget the simulated ARQ stack uses
  (:data:`repro.net.channel.MAX_RETRIES`) — or retrying forever when
  ``max_retries=None``, the mode live view changes run in: there a dead
  successor is membership's problem, and :meth:`RingTransport.retarget`
  re-points the hop at the new successor once a view installs;
* a callback receive path: each accepted connection, ring or control,
  is an :class:`asyncio.BufferedProtocol` whose one buffer the kernel
  fills in place; frames are sliced out as ``memoryview``s and handed
  up synchronously, so the codec's payload copy is the only user-space
  copy on the way in, and an upcall's exception fails the transport
  (``failure``) instead of vanishing with the connection (§5g);
* TX backpressure: ``tx_ready`` mirrors the simulated NIC's ``tx_idle``
  gate, so ``FSRProcess``'s fair-send pump throttles on a slow socket
  exactly like it throttles on a busy simulated NIC;
* a control plane: membership and failure-detector traffic is not
  ring-shaped (a flush coordinator talks to every member), so the
  transport keeps one lazily dialled, infinitely retried connection per
  control peer, mirroring the simulator's ``LayerDemux`` with
  layer-tagged :class:`~repro.live.codec.ControlFrame` envelopes;
* an optional fast path (``batching=BatchingConfig(...)``): each drain
  cycle coalesces every releasable queued frame into one batch frame —
  a single ``writelines`` and a single ``drain()`` per flush — riding
  pending ``AckBatch``es on the same syscall as data frames instead of
  paying a standalone send for each (DESIGN.md §5g).  No timer holds a
  flush back: the drain task runs once the event-loop turn that queued
  the frames has ended, so a flush carries what that turn produced and
  an idle ring never waits.  With batching unset the transport is byte-
  and syscall-identical to the unbatched build: one frame per write,
  one ``drain()`` per frame.
"""

from __future__ import annotations

import asyncio
import logging
import random
import socket
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.batching import BatchingConfig
from repro.core.fsr.messages import AckBatch
from repro.errors import CodecError, NetworkError
from repro.live.codec import (
    BATCH_HEADER_BYTES,
    CHANNEL_CONTROL,
    CHANNEL_RING,
    LENGTH_PREFIX_BYTES,
    MAX_FRAME_BYTES,
    ControlFrame,
    FrameBatch,
    FrameEncoder,
    Hello,
    WireMessage,
    batch_frame_parts,
    decode_message,
    encode_frame,
    frame_length,
)
from repro.net.channel import MAX_RETRIES
from repro.types import ProcessId

logger = logging.getLogger(__name__)

ReceiveHandler = Callable[[ProcessId, Any], None]
ControlHandler = Callable[[str, ProcessId, Any], None]

#: Outbound queue bound before ``tx_ready`` goes False (bytes).
DEFAULT_MAX_OUTBOUND_BYTES = 4 * 1024 * 1024
#: First reconnect delay; doubles per attempt up to the cap.
RECONNECT_BASE_S = 0.05
RECONNECT_CAP_S = 2.0
#: Poll period while the shaper holds a link fully blocked (partition).
BLOCK_POLL_S = 0.02
#: Receive buffer per inbound connection; only a larger frame grows it.
RX_BUFFER_BYTES = 256 * 1024
#: Written on every accepted control connection by an orderly
#: :meth:`RingTransport.close`, ahead of the FIN — the one thing a
#: crashed process cannot send (DESIGN.md §5c).
GOODBYE = b"\x00"


def _set_nodelay(writer: asyncio.StreamWriter) -> None:
    """Disable Nagle on an outbound connection.

    The ring carries many small latency-critical frames (acks, token
    passes); without this every coalesced flush can sit behind the
    kernel's delayed-ACK/Nagle interaction.  Failures are ignored —
    some transports (tests with mock writers) have no real socket.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass


class _InboundConnection(asyncio.BufferedProtocol):
    """RX path: one accepted connection, ring or control channel.

    The kernel fills the free tail of one reusable buffer; complete
    frame bodies are sliced out as ``memoryview``s, decoded and handed
    up synchronously.  Nothing handed up aliases the buffer: the codec
    copies each payload once and parses the rest into fresh objects.
    """

    def __init__(self, owner: "RingTransport") -> None:
        self.owner = owner
        self.transport: Optional[asyncio.BaseTransport] = None
        #: ``(peer id, channel)`` once the Hello has arrived.
        self.peer_key: Optional[Tuple[ProcessId, int]] = None
        #: The unconsumed bytes are ``_view[_start:_end]``.
        self._view = memoryview(bytearray(RX_BUFFER_BYTES))
        self._start = self._end = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Only our own registration: after a reconnect the key belongs
        # to the replacement, which close() must still find.
        peers = self.owner._inbound_peers
        if peers.get(self.peer_key) is self.transport:
            del peers[self.peer_key]

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view[self._end:]

    def buffer_updated(self, nbytes: int) -> None:
        owner = self.owner
        owner.rx_chunks += 1
        view = self._view
        start = self._start
        end = self._end + nbytes
        upcalls = 0
        try:
            while True:
                body_len = frame_length(view[start:end])
                if body_len is None:
                    need = LENGTH_PREFIX_BYTES
                    break
                need = LENGTH_PREFIX_BYTES + body_len
                if start + need > end:
                    break
                upcalls += self._on_frame(
                    view[start + LENGTH_PREFIX_BYTES:start + need]
                )
                start += need
        except CodecError:
            # Corrupt peer stream: drop the connection; the peer's
            # transport reconnects and re-greets with a fresh stream.
            self.transport.close()
            return
        except Exception as exc:
            # An upcall failed and the frames behind it go with the
            # connection: fail the transport (the node polls ``failure``
            # and exits non-zero) rather than run on without them.
            logger.exception("node %d: receive upcall failed", owner.node_id)
            owner._failure = f"receive upcall failed: {exc!r}"
            self.transport.close()
            return
        if owner._rx_frames_hist is not None:
            owner._rx_frames_hist.observe(upcalls)
        self._make_room(start, end, need)

    def _make_room(self, start: int, end: int, need: int) -> None:
        """Leave a free tail for the next ``recv_into``.

        ``need`` is the size of the partial frame at ``start``: its tail
        moves to the front only when it would not fit behind the
        consumed frames, and the buffer doubles only once it is full of
        bytes that really arrived (an announced length allocates
        nothing), up to one maximal frame; after that frame it is
        ``RX_BUFFER_BYTES`` again.
        """
        view = self._view
        size = len(view)
        pending = end - start
        if not pending:
            start = end = 0
        if size > RX_BUFFER_BYTES and need <= RX_BUFFER_BYTES:
            resized = RX_BUFFER_BYTES
        elif pending == size:
            resized = min(2 * size, LENGTH_PREFIX_BYTES + MAX_FRAME_BYTES)
        elif start + need > size:
            resized = size
        else:
            self._start, self._end = start, end
            return
        if resized != size:
            self._view = memoryview(bytearray(resized))
        self._view[:pending] = view[start:end]  # a memmove: may overlap
        self.owner.rx_compacted_bytes += pending
        self._start, self._end = 0, pending

    def _on_frame(self, body: memoryview) -> int:
        """Decode one frame body and hand it up; returns the upcalls made."""
        owner = self.owner
        message = decode_message(body)
        if self.peer_key is None:
            if not isinstance(message, Hello):
                raise CodecError(
                    f"expected Hello, got {type(message).__name__}"
                )
            self.peer_key = (message.node_id, message.channel)
            owner._inbound_peers[self.peer_key] = self.transport
            if message.channel == CHANNEL_RING:
                owner._inbound_hello.set()
            return 0
        peer_id, channel = self.peer_key
        is_control = isinstance(message, ControlFrame)
        if is_control != (channel == CHANNEL_CONTROL) or isinstance(
            message, Hello
        ):
            raise CodecError(
                f"unexpected {type(message).__name__} on channel {channel}"
            )
        if is_control:
            owner.control_frames_received += 1
            if owner.on_control is not None:
                owner.on_control(message.layer, peer_id, message.inner)
            return 1
        # A batch is one coalesced flush from the predecessor: deliver
        # each ride-along in wire order.
        batch = isinstance(message, FrameBatch)
        messages = message.messages if batch else (message,)
        if batch:
            owner.batches_received += 1
        owner.frames_received += len(messages)
        owner.bytes_received += LENGTH_PREFIX_BYTES + len(body)
        for inner in messages:
            owner.on_message(peer_id, inner)
        return len(messages)


class _ControlPeer:
    """One lazily dialled control connection: queue + dial/drain task.

    Control peers retry forever with capped backoff — a peer that is
    genuinely dead gets pruned when the next view installs without it
    (:meth:`RingTransport.prune_control_peers`).  Frames use the same
    peek-write-pop discipline as the ring queue, so a connection drop
    resends rather than loses.
    """

    def __init__(
        self, transport: "RingTransport", peer_id: ProcessId,
        addr: Tuple[str, int],
    ) -> None:
        self.transport = transport
        self.peer_id = peer_id
        self.addr = addr
        #: Queued (frame, earliest-release loop time) pairs.
        self.outbound: List[Tuple[bytes, float]] = []
        self.wakeup = asyncio.Event()
        self.closing = False
        self.task: asyncio.Task = asyncio.ensure_future(self._loop())

    def send(self, frame: bytes, release: float = 0.0) -> None:
        self.outbound.append((frame, release))
        self.wakeup.set()

    def close(self) -> None:
        self.closing = True
        self.wakeup.set()
        self.task.cancel()

    async def _loop(self) -> None:
        retries = 0
        transport = self.transport
        # The last established connection ended with no goodbye: if a
        # re-dial is now refused, the peer's process is gone (§5c).
        hung_up = False
        while not self.closing and not transport._closing:
            try:
                reader, writer = await asyncio.open_connection(*self.addr)
            except OSError as exc:
                # Only a refusal after a hang-up is evidence: a peer
                # that never answered is not listening *yet*, and a
                # timeout, an unreachable host or a reset (a re-dial
                # that raced the dying listener) says nothing — the
                # next dial may.
                if hung_up and isinstance(exc, ConnectionRefusedError):
                    hung_up = False
                    transport._peer_refused(self.peer_id)
                retries += 1
                await asyncio.sleep(transport._backoff(retries))
                continue
            _set_nodelay(writer)
            retries = 0
            # The peer never sends here: a byte is its goodbye, EOF or
            # a reset an unannounced hang-up.
            eof = asyncio.ensure_future(reader.read(1))
            try:
                writer.write(encode_frame(Hello(
                    node_id=transport.node_id, channel=CHANNEL_CONTROL,
                )))
                await writer.drain()
                loop = asyncio.get_event_loop()
                while not self.closing and not transport._closing:
                    while self.outbound:
                        if eof.done():
                            raise ConnectionResetError("control peer hung up")
                        frame, release = self.outbound[0]
                        if not await transport._pace(
                            self.peer_id, release,
                            lambda: self.closing or eof.done(),
                        ):
                            break
                        if eof.done():
                            raise ConnectionResetError("control peer hung up")
                        # Coalesce every queued, already-releasable
                        # frame into one write + one drain per wakeup —
                        # draining after every single heartbeat was a
                        # syscall per frame for no ordering benefit.
                        now = loop.time()
                        count = 1
                        while (
                            count < len(self.outbound)
                            and self.outbound[count][1] <= now
                        ):
                            count += 1
                        writer.writelines(
                            [f for f, _ in self.outbound[:count]]
                        )
                        await writer.drain()
                        del self.outbound[:count]
                        transport.control_frames_sent += count
                    self.wakeup.clear()
                    if self.outbound:
                        continue
                    waiter = asyncio.ensure_future(self.wakeup.wait())
                    try:
                        await asyncio.wait(
                            {eof, waiter},
                            return_when=asyncio.FIRST_COMPLETED,
                        )
                    finally:
                        waiter.cancel()
                    if eof.done():
                        break  # reconnect with the queue intact
            except (ConnectionError, OSError):
                pass
            finally:
                hung_up = not _said_goodbye(eof)
                eof.cancel()
                writer.close()


def _said_goodbye(eof: "asyncio.Future[bytes]") -> bool:
    """Whether a control connection's one read returned the goodbye."""
    return (
        eof.done() and not eof.cancelled() and eof.exception() is None
        and eof.result() == GOODBYE
    )


class RingTransport:
    """TCP ring hop: outbound to the successor, inbound from anyone.

    ``on_message(src, message)`` is invoked on the event loop for every
    decoded inbound ring frame.  ``send(dst, message)`` only accepts the
    *current* ring successor — the ring never sends anywhere else; a
    view change re-points the hop via :meth:`retarget`.  Control-plane
    traffic goes through :meth:`send_control` / ``on_control`` and its
    own per-peer connections, and is counted separately so ring
    quiescence detection is not defeated by heartbeats.
    """

    def __init__(
        self,
        node_id: ProcessId,
        listen_addr: Tuple[str, int],
        successor_id: ProcessId,
        successor_addr: Tuple[str, int],
        on_message: ReceiveHandler,
        *,
        peers: Optional[Dict[ProcessId, Tuple[str, int]]] = None,
        max_outbound_bytes: int = DEFAULT_MAX_OUTBOUND_BYTES,
        reconnect_base_s: float = RECONNECT_BASE_S,
        reconnect_cap_s: float = RECONNECT_CAP_S,
        max_retries: Optional[int] = MAX_RETRIES,
        shaper: Optional[Any] = None,
        rng: Optional[random.Random] = None,
        batching: Optional[BatchingConfig] = None,
        telemetry: Optional[Any] = None,
    ) -> None:
        self.node_id = node_id
        self.listen_addr = listen_addr
        self.successor_id = successor_id
        self.successor_addr = successor_addr
        self.on_message = on_message
        #: Control-plane upcall: ``on_control(layer, src, inner)``.
        self.on_control: Optional[ControlHandler] = None
        #: Crash-evidence upcall, at most once per hang-up: the control
        #: connection to ``peer`` ended without a goodbye and the peer's
        #: host then refused the port (DESIGN.md §5c).
        self.on_peer_refused: Optional[Callable[[ProcessId], None]] = None
        self.max_outbound_bytes = max_outbound_bytes
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_cap_s = reconnect_cap_s
        self.max_retries = max_retries
        #: Optional egress :class:`repro.chaos.netem.NetShaper`.  When
        #: set, every queued frame carries an earliest-release loop time
        #: from ``shaper.plan()`` and the drain loops hold frames while
        #: the shaper reports the destination link blocked (partition).
        self._shaper = shaper
        #: Reconnect-jitter RNG.  Seeded per node from the run seed so
        #: live chaos runs are reproducible from ``(scenario, seed)``;
        #: the deterministic default keeps non-chaos runs stable too.
        self._rng = rng if rng is not None else random.Random(
            f"transport:{node_id}"
        )
        #: Fast-path batch caps (DESIGN.md §5g); ``max_delay_s`` is the
        #: simulator's dial and is not read here.  ``None`` keeps the
        #: transport byte- and syscall-identical to the unbatched build.
        self.batching = batching
        #: Hot-path encoder: reusable buffer, prepacked struct headers.
        self._encoder = FrameEncoder()
        #: Per-flush telemetry (frames per flush, bytes per syscall).
        self._flush_frames_hist = (
            telemetry.histogram("transport_flush_frames")
            if telemetry is not None else None
        )
        self._flush_bytes_hist = (
            telemetry.histogram("transport_flush_bytes")
            if telemetry is not None else None
        )
        #: Frames handed up per receive wake-up (``buffer_updated``).
        self._rx_frames_hist = (
            telemetry.histogram("transport_rx_frames_per_chunk")
            if telemetry is not None else None
        )

        self._server: Optional[asyncio.AbstractServer] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Queued (frame, earliest-release loop time, is-ack) tuples.
        self._outbound: Deque[Tuple[bytes, float, bool]] = deque()
        self._queued_bytes = 0
        self._gate_closed = False
        self._tx_idle_callbacks: List[Callable[[], None]] = []
        #: What the drain loop sleeps on while the queue is empty
        #: (:meth:`_wake_drain`): the batched loop on the bare future
        #: (``None`` while it is busy or dialling), the unbatched loop
        #: on the event.
        self._drain_waiter: Optional["asyncio.Future[None]"] = None
        self._wakeup = asyncio.Event()
        self._dial_wakeup = asyncio.Event()
        self._connected = asyncio.Event()
        self._inbound_hello = asyncio.Event()
        #: Inbound connections keyed by (peer id, channel).
        self._inbound_peers: Dict[
            Tuple[ProcessId, int], asyncio.BaseTransport
        ] = {}
        #: Addresses control connections may dial (from the cluster config).
        self._peer_addrs: Dict[ProcessId, Tuple[str, int]] = dict(peers or {})
        self._control_peers: Dict[ProcessId, _ControlPeer] = {}
        self._tasks: List[asyncio.Task] = []
        self._closing = False
        self._failure: Optional[str] = None
        #: Bumped by retarget(); dial/drain loops abandon stale epochs.
        self._epoch = 0

        #: Ring-data transport counters, merged into the node's result
        #: stats (and polled for quiescence — control traffic excluded).
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reconnects = 0
        self.retargets = 0
        self.control_frames_sent = 0
        self.control_frames_received = 0
        #: Times the TX gate transitioned open -> closed (backpressure).
        self.tx_stalls = 0
        #: High-water mark of the outbound queue depth, in bytes.
        self.queued_bytes_hwm = 0
        #: Fast-path counters: drain cycles (one write + one drain each,
        #: counted in both modes), batch frames sent, frames that rode
        #: inside them, AckBatches that shared a flush with data instead
        #: of paying their own syscall, and batch frames received.
        self.flushes = 0
        self.batches_sent = 0
        self.batched_frames = 0
        self.acks_ridden = 0
        self.batches_received = 0
        #: Receive wake-ups, and bytes moved to make room in a buffer.
        self.rx_chunks = 0
        self.rx_compacted_bytes = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start connecting outbound."""
        host, port = self.listen_addr
        self._server = await asyncio.get_event_loop().create_server(
            lambda: _InboundConnection(self), host, port
        )
        self._tasks.append(asyncio.ensure_future(self._outbound_loop()))

    async def close(self) -> None:
        self._closing = True
        self._wake_drain()
        self._dial_wakeup.set()
        if self._server is not None:
            self._server.close()
            # Goodbye, now that the listener is gone: TCP orders the
            # byte ahead of the FIN on the very connection whose hang-up
            # would otherwise read as a crash once dials are refused.
            # (Said before the listener closed, a peer could read it,
            # re-dial into the closing listener's backlog and be reset
            # there with no goodbye.)
            for (_, channel), inbound in list(self._inbound_peers.items()):
                if channel == CHANNEL_CONTROL:
                    inbound.write(GOODBYE)
                # From 3.12 on wait_closed() waits for these to drop.
                inbound.close()
            await self._server.wait_closed()
        for peer in list(self._control_peers.values()):
            peer.close()
        pending = list(self._tasks) + [
            p.task for p in self._control_peers.values()
        ]
        self._control_peers.clear()
        for task in pending:
            task.cancel()
        for task in pending:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()

    @property
    def failure(self) -> Optional[str]:
        """Terminal transport failure (successor unreachable), if any."""
        return self._failure

    async def wait_outbound_connected(self, timeout: float) -> bool:
        """Wait until the successor connection is up."""
        try:
            await asyncio.wait_for(self._connected.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    async def wait_inbound_hello(self, timeout: float) -> bool:
        """Wait until some peer has connected the *ring* channel."""
        try:
            await asyncio.wait_for(self._inbound_hello.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def _backoff(self, retries: int) -> float:
        base = min(
            self.reconnect_cap_s,
            self.reconnect_base_s * (2 ** min(retries - 1, 16)),
        )
        # Jitter desynchronises reconnect stampedes after a partition
        # heals; drawn from the node's seeded RNG, not the global one,
        # so a chaos run replays identically from its seed.
        return base * (0.75 + 0.5 * self._rng.random())

    def _plan_release(self, dst: ProcessId, nbytes: int, channel: str) -> float:
        """Earliest loop time the next frame to ``dst`` may hit the wire."""
        if self._shaper is None:
            return 0.0
        loop = asyncio.get_event_loop()
        return self._shaper.plan(dst, nbytes, loop.time(), channel=channel)

    async def _pace(
        self, dst: ProcessId, release: float, aborted: Callable[[], bool]
    ) -> bool:
        """Hold the head frame until the shaper lets it onto the wire.

        Sleeps until ``release`` (event-loop time, stamped at enqueue so
        per-frame delays overlap instead of serialising), then polls
        while the shaper reports the link to ``dst`` blocked (partition).
        Returns ``False`` when ``aborted()`` fires or the transport is
        closing; the caller re-checks its own state before writing.
        """
        if self._shaper is None:
            return True
        loop = asyncio.get_event_loop()
        while not (self._closing or aborted()):
            delay = release - loop.time()
            if delay > 0:
                # Cap the sleep so aborts (retarget, peer EOF, close)
                # are noticed promptly even under long shaped delays.
                await asyncio.sleep(min(delay, BLOCK_POLL_S))
                continue
            if self._shaper.is_blocked(dst):
                await asyncio.sleep(BLOCK_POLL_S)
                continue
            return True
        return False

    # ------------------------------------------------------------------
    # Ring re-wiring (view changes)
    # ------------------------------------------------------------------
    def retarget(
        self, successor_id: ProcessId, successor_addr: Tuple[str, int]
    ) -> None:
        """Re-point the ring hop at a new successor (view install).

        Queued frames are dropped: they carry the superseded view's id,
        so the new successor would discard them on arrival anyway, and
        the origin re-broadcasts anything that matters after the view
        change.  A closed TX gate reopens (asynchronously, so the
        protocol's pump runs after the caller finishes installing the
        new ring, not reentrantly from inside it).  No-op when the
        successor is unchanged — in-flight traffic survives the view
        change on the same connection.
        """
        successor_addr = (successor_addr[0], successor_addr[1])
        if (
            successor_id == self.successor_id
            and successor_addr == self.successor_addr
        ):
            return
        self.successor_id = successor_id
        self.successor_addr = successor_addr
        self._epoch += 1
        self.retargets += 1
        logger.info(
            "node %d: ring retargeted to successor %d at %s:%d",
            self.node_id, successor_id, successor_addr[0], successor_addr[1],
        )
        self._outbound.clear()
        self._queued_bytes = 0
        self._failure = None
        self._connected.clear()
        if self._gate_closed:
            self._gate_closed = False
            loop = asyncio.get_event_loop()
            for callback in list(self._tx_idle_callbacks):
                loop.call_soon(callback)
        if self._writer is not None:
            self._writer.close()
        self._wake_drain()
        self._dial_wakeup.set()

    # ------------------------------------------------------------------
    # TX path (ring data)
    # ------------------------------------------------------------------
    @property
    def tx_ready(self) -> bool:
        """True while the outbound queue can take another message."""
        return self._queued_bytes < self.max_outbound_bytes

    @property
    def queued_bytes(self) -> int:
        """Bytes queued but not yet drained to the socket."""
        return self._queued_bytes

    def on_tx_idle(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when a closed TX gate reopens."""
        self._tx_idle_callbacks.append(callback)

    def send(self, dst: ProcessId, message: WireMessage) -> None:
        """Queue ``message`` for the ring successor."""
        if dst != self.successor_id:
            raise NetworkError(
                f"ring transport at node {self.node_id} can only send to "
                f"successor {self.successor_id}, not {dst}"
            )
        frame = self._encoder.encode_frame(message)
        release = self._plan_release(dst, len(frame), "ring")
        self._outbound.append((frame, release, isinstance(message, AckBatch)))
        self._queued_bytes += len(frame)
        if self._queued_bytes > self.queued_bytes_hwm:
            self.queued_bytes_hwm = self._queued_bytes
        if not self.tx_ready:
            if not self._gate_closed:
                self.tx_stalls += 1
                logger.debug(
                    "node %d: TX gate closed at %d queued bytes",
                    self.node_id, self._queued_bytes,
                )
            self._gate_closed = True
        self._wake_drain()

    def _wake_drain(self, _eof: Optional[asyncio.Future] = None) -> None:
        """Wake the drain loop: frames queued, peer gone, retarget, close."""
        self._wakeup.set()
        waiter = self._drain_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _outbound_loop(self) -> None:
        retries = 0
        epoch = self._epoch
        while not self._closing:
            if self._epoch != epoch:
                epoch = self._epoch
                retries = 0
            addr = self.successor_addr
            try:
                reader, writer = await asyncio.open_connection(*addr)
            except OSError:
                if self._epoch != epoch:
                    continue  # retargeted while dialling the old address
                retries += 1
                if self.max_retries is not None and retries > self.max_retries:
                    self._failure = (
                        f"successor {self.successor_id} unreachable after "
                        f"{self.max_retries} attempts"
                    )
                    logger.error("node %d: %s", self.node_id, self._failure)
                    return
                self._dial_wakeup.clear()
                try:
                    await asyncio.wait_for(
                        self._dial_wakeup.wait(), self._backoff(retries)
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            if self._epoch != epoch:
                writer.close()
                continue
            _set_nodelay(writer)

            if retries > 0:
                self.reconnects += 1
                logger.warning(
                    "node %d: reconnected to successor %d after %d failed "
                    "dial(s)", self.node_id, self.successor_id, retries,
                )
            retries = 0
            self._writer = writer
            try:
                writer.write(encode_frame(Hello(node_id=self.node_id)))
                await writer.drain()
                self._connected.set()
                await self._drain_queue(reader, writer, epoch)
            except (ConnectionError, OSError):
                pass
            finally:
                self._connected.clear()
                self._writer = None
                writer.close()
            # Loop back around and reconnect (unless closing).

    async def _drain_queue(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        epoch: int,
    ) -> None:
        # The successor never sends on this socket, so any readable
        # byte — in practice EOF — means it hung up.  Watching for it
        # here (instead of discovering the corpse on the next write)
        # keeps queued frames queued when the peer dies, so a restart
        # or retarget resends them instead of feeding a dead kernel
        # buffer.
        eof = asyncio.ensure_future(reader.read(1))
        batching = self.batching
        if batching is not None:
            eof.add_done_callback(self._wake_drain)
        loop = asyncio.get_event_loop()
        try:
            while not self._closing and self._epoch == epoch:
                while self._outbound and self._epoch == epoch:
                    if eof.done():
                        return  # peer gone; head frame stays queued
                    # Peek-write-pop: a frame stays queued until
                    # drained, so a connection drop resends it after
                    # reconnect instead of silently losing it
                    # (duplicates are cheaper than a stuck ring, and
                    # FSR suppresses re-delivered sequence numbers and
                    # un-sequenced copies of delivered message ids).
                    frame, release, _ = self._outbound[0]
                    if not await self._pace(
                        self.successor_id, release,
                        lambda: self._epoch != epoch or eof.done(),
                    ):
                        return  # retargeted, peer gone, or closing
                    if batching is None:
                        # Unbatched build: one frame per write, one
                        # drain per frame — byte- and syscall-identical
                        # to the pre-fastpath transport (the parity
                        # baseline the benchmarks compare against).
                        writer.write(frame)
                        await writer.drain()
                        if self._epoch != epoch:
                            return  # retargeted mid-drain; queue reset
                        self._pop_flushed(1)
                        self._note_flush(1, len(frame))
                        continue
                    # Batched: everything the turn(s) before this task
                    # step queued leaves in one write; nothing is held
                    # back for more to join (DESIGN.md §5g).
                    frames, is_ack = self._collect_batch(batching, loop)
                    if len(frames) == 1:
                        # A lone releasable message ships as a plain
                        # frame: byte-identical to the unbatched wire.
                        writer.write(frames[0])
                        wire = len(frames[0])
                    else:
                        parts = batch_frame_parts(frames)
                        writer.writelines(parts)
                        wire = sum(len(p) for p in parts)
                    await writer.drain()
                    if self._epoch != epoch:
                        return  # retargeted mid-drain; queue was reset
                    self._pop_flushed(len(frames))
                    self._note_flush(len(frames), wire, is_ack)
                if batching is None:
                    # Unbatched build: woken through the event -> a
                    # waiter task -> ``asyncio.wait``, three loop
                    # iterations from ``send()`` to the write.  The
                    # one-iteration wake-up below is not shared with
                    # this path: the serve tier runs unbatched, and
                    # with it ``serve_sat`` runs spread 1.75x as wide
                    # (DESIGN.md §5g).
                    self._wakeup.clear()
                    if self._outbound:
                        continue
                    waiter = asyncio.ensure_future(self._wakeup.wait())
                    try:
                        await asyncio.wait(
                            {eof, waiter}, return_when=asyncio.FIRST_COMPLETED
                        )
                    finally:
                        waiter.cancel()
                    if eof.done():
                        return
                    continue
                if eof.done() or self._epoch != epoch:
                    return
                # Batched: sleep on a bare future, not an Event.
                # Resolving it queues this task's next step directly,
                # so the flush runs as soon as the event-loop turn that
                # queued the frames has ended and carries what that
                # turn produced — a wake-up that takes further loop
                # iterations lets later turns' frames pile onto the
                # batch (DESIGN.md §5g).  Nothing awaits between the
                # checks above and this sleep, so no wake-up is lost.
                self._drain_waiter = loop.create_future()
                try:
                    await self._drain_waiter
                finally:
                    self._drain_waiter = None
        finally:
            eof.cancel()

    def _collect_batch(
        self, batching: BatchingConfig, loop: asyncio.AbstractEventLoop
    ) -> Tuple[List[bytes], List[bool]]:
        """Frames (and their is-ack flags) joining this flush.

        Takes the longest queue prefix that fits ``max_batch_messages``/
        ``max_batch_bytes`` (always at least the head frame) and whose
        shaped release times have passed — coalescing an unreleased
        frame would let a batch overtake the shaper's schedule.
        """
        now = loop.time() if self._shaper is not None else 0.0
        frames: List[bytes] = []
        is_ack: List[bool] = []
        total = 0
        for frame, release, ack in self._outbound:
            if frames:
                if len(frames) >= batching.max_batch_messages:
                    break
                if total + len(frame) > batching.max_batch_bytes:
                    break
                if (
                    BATCH_HEADER_BYTES + total + len(frame)
                    > MAX_FRAME_BYTES
                ):
                    break
                if release > now:
                    break
            frames.append(frame)
            is_ack.append(ack)
            total += len(frame)
        return frames, is_ack

    def _pop_flushed(self, count: int) -> None:
        """Dequeue ``count`` drained frames and reopen the TX gate."""
        for _ in range(count):
            frame = self._outbound.popleft()[0]
            self._queued_bytes -= len(frame)
            self.frames_sent += 1
        if self._gate_closed and self.tx_ready:
            self._gate_closed = False
            for callback in list(self._tx_idle_callbacks):
                callback()

    def _note_flush(
        self, count: int, wire_bytes: int, is_ack: Optional[List[bool]] = None
    ) -> None:
        """Account one write+drain cycle in counters and telemetry."""
        self.flushes += 1
        self.bytes_sent += wire_bytes
        if count > 1:
            self.batches_sent += 1
            self.batched_frames += count
            if is_ack is not None:
                acks = sum(is_ack)
                if acks and acks < count:
                    # AckBatches sharing the syscall with data frames:
                    # the live analogue of the sim's piggybacked acks.
                    self.acks_ridden += acks
        if self._flush_frames_hist is not None:
            self._flush_frames_hist.observe(count)
            self._flush_bytes_hist.observe(wire_bytes)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def send_control(self, dst: ProcessId, layer: str, message: Any) -> None:
        """Queue a layer-tagged control message for ``dst``.

        Unlike the ring hop, control traffic may address any configured
        peer; the connection is dialled on first use and retried
        forever until :meth:`prune_control_peers` drops the peer.
        """
        if dst == self.node_id:
            raise NetworkError(
                f"node {self.node_id}: control plane does not loop back "
                "to self (local sends go through the scheduler)"
            )
        peer = self._control_peers.get(dst)
        if peer is None:
            addr = self._peer_addrs.get(dst)
            if addr is None:
                raise NetworkError(
                    f"node {self.node_id}: no address configured for "
                    f"control peer {dst}"
                )
            peer = _ControlPeer(self, dst, addr)
            self._control_peers[dst] = peer
        frame = encode_frame(ControlFrame(layer=layer, inner=message))
        peer.send(frame, self._plan_release(dst, len(frame), "ctl"))

    def _peer_refused(self, peer_id: ProcessId) -> None:
        logger.debug(
            "node %d: control peer %d hung up and now refuses its port",
            self.node_id, peer_id,
        )
        if self.on_peer_refused is None:
            return
        try:
            self.on_peer_refused(peer_id)
        except Exception as exc:
            # As on the receive path: fail loudly, not with the dial task.
            logger.exception("node %d: refusal upcall failed", self.node_id)
            self._failure = f"refusal upcall failed: {exc!r}"

    def prune_control_peers(self, keep) -> None:
        """Drop control connections to peers outside ``keep``.

        Called on view install: heartbeats and flush retries to an
        excluded (dead) member would otherwise dial it forever.
        """
        keep = set(keep)
        for pid in list(self._control_peers):
            if pid not in keep:
                self._control_peers.pop(pid).close()
