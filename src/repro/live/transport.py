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
  up synchronously, and an upcall's exception fails the transport
  (``failure``) instead of vanishing with the connection (§5g); a batch
  frame is one unit of work: its messages are handed up as one list
  (``on_messages``, FSR's one-pump frame handler) and the ring link
  writes the answer before the next frame is decoded;
* a callback send path: the successor hop and every control peer are
  one :class:`_Link` each, whose connection is an
  :class:`asyncio.Protocol`; the first frame queued in a loop turn
  schedules the one write that carries everything the turn queued, so a
  flush carries what that turn produced and an idle link never waits
  (DESIGN.md §5g); ``before_write`` runs ahead of each such write (a
  node's journal flush).  A frame is queued as its wire parts — a data
  frame's packed headers and its payload object — and a write hands
  them to ``os.writev`` on the socket, so a payload is not copied on
  the way out: the decode's copy on the way in, which detaches it from
  the receive buffer, is the only user-space copy of a payload per hop;
* TX backpressure: ``tx_ready`` mirrors the simulated NIC's ``tx_idle``
  gate, so ``FSRProcess``'s fair-send pump throttles on a slow socket
  exactly like it throttles on a busy simulated NIC — a connection whose
  send buffer is past its high-water mark stops being written
  (``pause_writing``) and the queue behind it closes the gate;
* a control plane: membership and failure-detector traffic is not
  ring-shaped (a flush coordinator talks to every member), so the
  transport keeps one lazily dialled, infinitely retried link per
  control peer, mirroring the simulator's ``LayerDemux`` with
  layer-tagged :class:`~repro.live.codec.ControlFrame` envelopes;
* an optional batch envelope (``batching=BatchingConfig(...)``): the
  ring frames of one write are grouped into batch frames of at most the
  configured size, riding pending ``AckBatch``es with data frames.
  With batching unset the byte stream is the plain frames, one after
  the other.
"""

from __future__ import annotations

import asyncio
import logging
import os
import random
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

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
    batch_frame_head,
    decode_message,
    encode_frame,
    frame_length,
)
from repro.net.channel import MAX_RETRIES
from repro.types import ProcessId

logger = logging.getLogger(__name__)

ReceiveHandler = Callable[[ProcessId, Any], None]
FrameHandler = Callable[[ProcessId, List[Any]], None]
ControlHandler = Callable[[str, ProcessId, Any], None]

#: Outbound queue bound before ``tx_ready`` goes False (bytes).
DEFAULT_MAX_OUTBOUND_BYTES = 4 * 1024 * 1024
#: First reconnect delay; doubles per attempt up to the cap.
RECONNECT_BASE_S = 0.05
RECONNECT_CAP_S = 2.0
#: Poll period while the shaper holds a link fully blocked (partition).
BLOCK_POLL_S = 0.02
#: Receive buffer per inbound connection; only a larger frame grows it.
#: One wake-up drains about ten 100 KB frames, and the tail of a partial
#: frame rarely has to move (EXPERIMENTS.md has the sweep).
RX_BUFFER_BYTES = 1024 * 1024
#: Written on every accepted control connection by an orderly
#: :meth:`RingTransport.close`, ahead of the FIN — the one thing a
#: crashed process cannot send (DESIGN.md §5c).
GOODBYE = b"\x00"

#: One queued frame: (wire parts, their length, earliest-release loop
#: time, is-ack).
_Queued = Tuple[Sequence[bytes], int, float, bool]
#: Buffers one ``os.writev`` takes at most.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


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
        owner.bytes_received += LENGTH_PREFIX_BYTES + len(body)
        if not isinstance(message, FrameBatch):
            owner.frames_received += 1
            owner.on_message(peer_id, message)
            return 1
        # A batch is one write of the predecessor's and one unit of work
        # here: its ride-alongs go up in wire order as one list, whose
        # handler answers the whole frame, and the answer is written
        # before the next frame is decoded (DESIGN.md §5g).
        messages = message.messages
        owner.batches_received += 1
        owner.frames_received += len(messages)
        owner.on_messages(peer_id, messages)
        owner._ring.write_now()
        return len(messages)


class _OutboundConnection(asyncio.Protocol):
    """One dialled connection of a :class:`_Link`.

    The peer never sends on it: the one byte it may write is
    :data:`GOODBYE`, ahead of an orderly FIN, and EOF or a reset without
    it is an unannounced hang-up.  Either way the link stops writing
    here the moment it is read, so what is still queued stays queued for
    the next connection instead of feeding a dead kernel buffer.
    """

    def __init__(self, link: "_Link") -> None:
        self.link = link
        self.transport: Optional[asyncio.Transport] = None
        #: The connected socket's descriptor, set by the dialling link;
        #: ``None`` (a transport without a socket) joins every write.
        self.fd: Optional[int] = None
        #: The transport's send buffer is past its high-water mark.
        self.paused = False
        self.said_goodbye = False
        #: Resolved once the connection is gone, however it went.
        self.lost: "asyncio.Future[None]" = link._loop.create_future()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        self.said_goodbye = data[:1] == GOODBYE
        self.link._drop(self)

    def eof_received(self) -> bool:
        self.link._drop(self)
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.link._drop(self)
        if not self.lost.done():
            self.lost.set_result(None)

    def pause_writing(self) -> None:
        self.paused = True
        self.link.owner.tx_pauses += 1

    def resume_writing(self) -> None:
        self.paused = False
        self.link._kick()

    def write(self, parts: List[bytes]) -> None:
        """Put ``parts`` on the wire, in order, copying none the kernel takes.

        While the transport holds no unsent bytes, the parts go straight
        to the socket, one ``os.writev`` per ``_IOV_MAX`` of them (what
        ``transport.writelines`` does from Python 3.12 on), and only what
        the kernel did not take is joined into ``transport.write``,
        where every later write queues behind it.  Without a socket, or
        behind unsent bytes, the parts are joined.  An error other than
        a full socket buffer leaves the rest to ``transport.write`` too,
        which meets it again and reports the loss.
        """
        transport = self.transport
        if self.fd is not None and not transport.get_write_buffer_size():
            start = 0
            count = len(parts)
            while start < count:
                chunk = parts[start:start + _IOV_MAX]
                try:
                    sent = os.writev(self.fd, chunk)
                except OSError:
                    break
                if sent == sum(map(len, chunk)):
                    start += len(chunk)
                    continue
                # The socket's buffer is full: skip what it took.
                for part in chunk:
                    if len(part) > sent:
                        break
                    sent -= len(part)
                    start += 1
                if sent:
                    parts[start] = memoryview(parts[start])[sent:]
                break
            if start == count:
                return
            self.link.owner.tx_partial_writes += 1
            parts = parts[start:]
        transport.write(parts[0] if len(parts) == 1 else b"".join(parts))


class _Link:
    """One outbound destination: the ring successor or a control peer.

    Frames queue here, as their wire parts, until a write takes them,
    so a connection that drops resends what it had not yet taken.  The
    first frame queued in a loop turn schedules :meth:`_flush`, which
    hands every releasable queued frame to ``pack`` and writes the parts
    it returns in one scatter-gather write
    (:meth:`_OutboundConnection.write`) — the same turn-bounded rule as
    the serve tier's connections (DESIGN.md §5g) — unless
    :meth:`write_now` takes it sooner (the ring hop, once per batch
    frame received).  A task dials,
    greets, holds the connection until it is lost and re-dials with
    capped backoff; no task runs around the writes.
    """

    def __init__(
        self,
        owner: "RingTransport",
        peer_id: ProcessId,
        addr: Tuple[str, int],
        channel: int,
        pack: Callable[[List[_Queued]], List[bytes]],
        max_retries: Optional[int] = None,
    ) -> None:
        self.owner = owner
        self.peer_id = peer_id
        self.addr = addr
        self.channel = channel
        #: Turns the frames one flush takes into wire parts, and counts
        #: them (the ring and the control plane keep separate counters).
        self._pack = pack
        self.max_retries = max_retries
        self.queue: Deque[_Queued] = deque()
        self.queued_bytes = 0
        #: The greeted connection being written, if any.
        self.conn: Optional[_OutboundConnection] = None
        self.connected = asyncio.Event()
        self.closing = False
        #: Bumped by :meth:`redirect`; a dial to the old address is void.
        self.epoch = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The scheduled flush (next turn, or a shaped release time).
        self._flush_handle: Optional[asyncio.Handle] = None
        self._dial_wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._loop = asyncio.get_event_loop()
        self.task = asyncio.ensure_future(self._run())

    def close(self) -> None:
        self.closing = True
        if self.task is not None:
            self.task.cancel()
        if self.conn is not None:
            self._drop(self.conn)

    def redirect(self, peer_id: ProcessId, addr: Tuple[str, int]) -> None:
        """Point the link at a new destination, dropping the queue."""
        self.peer_id, self.addr = peer_id, addr
        self.epoch += 1
        self.queue.clear()
        self.queued_bytes = 0
        if self.conn is not None:
            self._drop(self.conn)
        self._dial_wakeup.set()

    # -- send side ------------------------------------------------------
    def send(
        self, parts: Sequence[bytes], size: int, release: float,
        is_ack: bool = False,
    ) -> None:
        self.queue.append((parts, size, release, is_ack))
        self.queued_bytes += size
        self._kick()

    def write_now(self) -> None:
        """Flush now instead of when the turn ends (shaping still holds)."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
        self._flush()

    def _kick(self) -> None:
        """Schedule a flush for the end of this turn, unless one is due."""
        conn = self.conn
        if (
            self._flush_handle is None and conn is not None
            and not conn.paused and self.queue
        ):
            self._flush_handle = self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_handle = None
        conn = self.conn
        if (
            conn is None or conn.paused or not self.queue
            or conn.transport.is_closing()
        ):
            return  # hung up, closing or the send buffer is full: stays queued
        count = self._releasable()
        if not count:
            return
        queue = self.queue
        taken = [queue.popleft() for _ in range(count)]
        self.queued_bytes -= sum(size for _p, size, _r, _a in taken)
        parts = self._pack(taken)
        before_write = self.owner.before_write
        if before_write is not None:
            before_write()
        conn.write(parts)

    def _releasable(self) -> int:
        """How many queued frames the shaper lets onto the wire now.

        Each frame carries the release time the shaper planned when it
        was queued (so per-frame delays overlap instead of serialising);
        the first one not yet due ends the write and arms the next
        flush for its release, and a blocked link (partition) is polled.
        """
        shaper = self.owner._shaper
        queue = self.queue
        if shaper is None:
            return len(queue)
        loop = self._loop
        if shaper.is_blocked(self.peer_id):
            self._flush_handle = loop.call_later(BLOCK_POLL_S, self._flush)
            return 0
        now = loop.time()
        count = 0
        for _parts, _size, release, _ack in queue:
            if release > now:
                self._flush_handle = loop.call_at(release, self._flush)
                break
            count += 1
        return count

    # -- connection -----------------------------------------------------
    def _greet(self, conn: _OutboundConnection) -> None:
        """Say Hello on a fresh connection and start writing to it."""
        conn.transport.write(encode_frame(
            Hello(node_id=self.owner.node_id, channel=self.channel)
        ))
        if not conn.transport.is_closing():  # not hung up already
            self.conn = conn
            self.connected.set()
            self._kick()

    def _drop(self, conn: _OutboundConnection) -> None:
        """Stop writing on ``conn``: hung up, lost, redirected, closing."""
        if self.conn is conn:
            self.conn = None
            self.connected.clear()
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
        conn.transport.close()

    async def _run(self) -> None:
        """Dial, greet, hold the connection until it is lost; repeat."""
        owner = self.owner
        ring = self.channel == CHANNEL_RING
        retries = 0
        epoch = self.epoch
        # The last connection ended with no goodbye: if a re-dial is now
        # refused, the peer's process is gone (DESIGN.md §5c).
        hung_up = False
        while not (self.closing or owner._closing):
            if self.epoch != epoch:
                epoch = self.epoch
                retries = 0
            try:
                _transport, conn = await self._loop.create_connection(
                    lambda: _OutboundConnection(self), *self.addr
                )
            except OSError as exc:
                if self.epoch != epoch:
                    continue  # redirected while dialling the old address
                # Only a control link's refusal after a hang-up is
                # evidence: a peer that never answered is not listening
                # *yet*, and a timeout, an unreachable host or a reset
                # (a re-dial that raced the dying listener) says
                # nothing — the next dial may.
                if hung_up and isinstance(exc, ConnectionRefusedError):
                    hung_up = False
                    owner._peer_refused(self.peer_id)
                retries += 1
                if self.max_retries is not None and retries > self.max_retries:
                    owner._failure = (
                        f"successor {self.peer_id} unreachable after "
                        f"{self.max_retries} attempts"
                    )
                    logger.error("node %d: %s", owner.node_id, owner._failure)
                    return
                self._dial_wakeup.clear()
                try:
                    await asyncio.wait_for(
                        self._dial_wakeup.wait(), owner._backoff(retries)
                    )
                except asyncio.TimeoutError:
                    pass
                continue
            if self.epoch != epoch:
                conn.transport.close()
                continue
            sock = conn.transport.get_extra_info("socket")
            conn.fd = None if sock is None else sock.fileno()
            if ring and retries:
                owner.reconnects += 1
                logger.warning(
                    "node %d: reconnected to successor %d after %d failed "
                    "dial(s)", owner.node_id, self.peer_id, retries,
                )
            retries = 0
            self._greet(conn)
            try:
                await conn.lost
            finally:
                self._drop(conn)
            hung_up = not ring and not conn.said_goodbye


class RingTransport:
    """TCP ring hop: outbound to the successor, inbound from anyone.

    It is the ``Port`` that :class:`~repro.core.fsr.process.FSRProcess`
    (and each multiring ``RingLink``) talks to: ``node_id``,
    :meth:`on_receive` and ``send(dst, message)``.  ``on_message(src,
    message)`` is invoked on the event loop for every decoded inbound
    plain ring frame, ``on_messages(src, messages)`` once per batch
    frame (by default it calls ``on_message`` per message; a node
    points it at FSR's ``on_messages``).  ``send`` only accepts the
    *current* ring successor — the ring never sends anywhere else; a
    view change re-points the hop via :meth:`retarget`.  Control-plane traffic goes through
    :meth:`send_control` / ``on_control`` and its own per-peer links,
    and is counted separately from the ring data.
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
        self.on_message = on_message
        #: Batch-frame upcall: the frame's messages, in wire order.
        self.on_messages: FrameHandler = self._each_message
        #: Control-plane upcall: ``on_control(layer, src, inner)``.
        self.on_control: Optional[ControlHandler] = None
        #: Called ahead of every ring and control write that carries
        #: frames: a journalling node flushes its journal here, so what
        #: a turn journalled is on file before that turn's bytes leave.
        self.before_write: Optional[Callable[[], None]] = None
        #: Crash-evidence upcall, at most once per hang-up: the control
        #: connection to ``peer`` ended without a goodbye and the peer's
        #: host then refused the port (DESIGN.md §5c).
        self.on_peer_refused: Optional[Callable[[ProcessId], None]] = None
        self.max_outbound_bytes = max_outbound_bytes
        self.reconnect_base_s = reconnect_base_s
        self.reconnect_cap_s = reconnect_cap_s
        #: Optional egress :class:`repro.chaos.netem.NetShaper`.  When
        #: set, every queued frame carries an earliest-release loop time
        #: from ``shaper.plan()`` and the links hold frames while the
        #: shaper reports the destination link blocked (partition).
        self._shaper = shaper
        #: Reconnect-jitter RNG.  Seeded per node from the run seed so
        #: live chaos runs are reproducible from ``(scenario, seed)``;
        #: the deterministic default keeps non-chaos runs stable too.
        self._rng = rng if rng is not None else random.Random(
            f"transport:{node_id}"
        )
        #: Batch-frame caps (DESIGN.md §5g); ``max_delay_s`` is the
        #: simulator's dial and is not read here.  ``None`` sends the
        #: plain frames.
        self.batching = batching
        #: Hot-path encoder: reusable buffer, prepacked struct headers.
        self._encoder = FrameEncoder()
        #: Per-write telemetry (frames per write, bytes per write).
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
        #: The ring hop; dialled from :meth:`start`.
        self._ring = _Link(
            self, successor_id, successor_addr, CHANNEL_RING,
            self._pack_ring, max_retries,
        )
        self._gate_closed = False
        self._tx_idle_callbacks: List[Callable[[], None]] = []
        self._inbound_hello = asyncio.Event()
        #: Inbound connections keyed by (peer id, channel).
        self._inbound_peers: Dict[
            Tuple[ProcessId, int], asyncio.BaseTransport
        ] = {}
        #: Addresses control links may dial (from the cluster config).
        self._peer_addrs: Dict[ProcessId, Tuple[str, int]] = dict(peers or {})
        self._control_peers: Dict[ProcessId, _Link] = {}
        self._closing = False
        self._failure: Optional[str] = None

        #: Ring-data transport counters, merged into the node's result
        #: stats (control traffic excluded).
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.reconnects = 0
        self.retargets = 0
        self.control_frames_sent = 0
        self.control_frames_received = 0
        #: Control-plane writes (each carries every frame its turn queued).
        self.control_flushes = 0
        #: Times the TX gate transitioned open -> closed (backpressure).
        self.tx_stalls = 0
        #: Times an outbound connection's send buffer passed its
        #: high-water mark and the link stopped writing to it
        #: (``pause_writing``), ring or control.
        self.tx_pauses = 0
        #: High-water mark of the outbound queue depth, in bytes.
        self.queued_bytes_hwm = 0
        #: Ring writes (one per loop turn that queued frames, and one
        #: per batch frame received whose handler queued any), batch
        #: frames sent, frames that rode inside them, AckBatches that
        #: shared a batch frame with data, and batch frames received.
        self.flushes = 0
        self.batches_sent = 0
        self.batched_frames = 0
        self.acks_ridden = 0
        self.batches_received = 0
        #: Writes, ring or control, whose tail the socket did not take at
        #: once and the transport's buffer holds.
        self.tx_partial_writes = 0
        #: Receive wake-ups, and bytes moved to make room in a buffer.
        self.rx_chunks = 0
        self.rx_compacted_bytes = 0

    @property
    def successor_id(self) -> ProcessId:
        return self._ring.peer_id

    @property
    def successor_addr(self) -> Tuple[str, int]:
        return self._ring.addr

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start connecting outbound."""
        host, port = self.listen_addr
        self._server = await asyncio.get_event_loop().create_server(
            lambda: _InboundConnection(self), host, port
        )
        self._ring.start()

    async def close(self) -> None:
        self._closing = True
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
        links = [self._ring, *self._control_peers.values()]
        self._control_peers.clear()
        for link in links:
            link.close()
        for link in links:
            if link.task is not None:
                try:
                    await link.task
                except (asyncio.CancelledError, Exception):
                    pass

    @property
    def failure(self) -> Optional[str]:
        """Terminal transport failure (successor unreachable), if any."""
        return self._failure

    async def wait_outbound_connected(self, timeout: float) -> bool:
        """Wait until the successor connection is up."""
        try:
            await asyncio.wait_for(self._ring.connected.wait(), timeout)
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

    async def wait_members_connected(self, timeout: float) -> bool:
        """Open the control link to every configured peer and wait until
        each one is connected: every member's listener is up.

        These are the links heartbeats and flushes use anyway; a dial
        that is refused before it ever connected is no crash evidence,
        so a member that starts late is waited for, not suspected.
        """
        links = [
            self._control_link(pid)
            for pid in self._peer_addrs if pid != self.node_id
        ]
        try:
            await asyncio.wait_for(
                asyncio.gather(*(link.connected.wait() for link in links)),
                timeout,
            )
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
        self.retargets += 1
        logger.info(
            "node %d: ring retargeted to successor %d at %s:%d",
            self.node_id, successor_id, successor_addr[0], successor_addr[1],
        )
        self._ring.redirect(successor_id, successor_addr)
        self._failure = None
        if self._gate_closed:
            self._gate_closed = False
            loop = asyncio.get_event_loop()
            for callback in list(self._tx_idle_callbacks):
                loop.call_soon(callback)

    # ------------------------------------------------------------------
    # TX path (ring data)
    # ------------------------------------------------------------------
    @property
    def tx_ready(self) -> bool:
        """True while the outbound queue can take another message."""
        return self._ring.queued_bytes < self.max_outbound_bytes

    @property
    def queued_bytes(self) -> int:
        """Bytes queued but not yet written to the socket."""
        return self._ring.queued_bytes

    @property
    def written(self) -> bool:
        """Every frame queued for the successor is in the kernel, or it hung up."""
        conn = self._ring.conn
        return conn is None or not (
            self._ring.queue or conn.transport.get_write_buffer_size()
        )

    def on_receive(self, handler: ReceiveHandler) -> None:
        """Hand every inbound ring message to ``handler(src, message)``."""
        self.on_message = handler

    def _each_message(self, src: ProcessId, messages: List[Any]) -> None:
        for message in messages:
            self.on_message(src, message)

    def on_tx_idle(self, callback: Callable[[], None]) -> None:
        """Register a callback fired when a closed TX gate reopens."""
        self._tx_idle_callbacks.append(callback)

    def _reopen(self) -> None:
        self._gate_closed = False
        for callback in list(self._tx_idle_callbacks):
            callback()

    def send(self, dst: ProcessId, message: WireMessage) -> None:
        """Queue ``message`` for the ring successor."""
        ring = self._ring
        if dst != ring.peer_id:
            raise NetworkError(
                f"ring transport at node {self.node_id} can only send to "
                f"successor {ring.peer_id}, not {dst}"
            )
        parts = self._encoder.encode_parts(message)
        size = sum(map(len, parts))
        ring.send(
            parts, size, self._plan_release(dst, size, "ring"),
            isinstance(message, AckBatch),
        )
        queued = ring.queued_bytes
        if queued > self.queued_bytes_hwm:
            self.queued_bytes_hwm = queued
        if queued >= self.max_outbound_bytes:
            if not self._gate_closed:
                self.tx_stalls += 1
                logger.debug(
                    "node %d: TX gate closed at %d queued bytes",
                    self.node_id, queued,
                )
            self._gate_closed = True

    def _pack_ring(self, taken: List[_Queued]) -> List[bytes]:
        """Wire parts of one ring write, counted; reopens the TX gate.

        Unbatched, the frames' parts go as they are.  Batched, each
        longest run that fits ``max_batch_messages`` / ``max_batch_bytes``
        (always at least one frame) becomes one batch frame — its length
        prefix and header, then its entries' parts — and a run of one
        stays a plain frame, byte-identical to the unbatched wire.
        """
        batching = self.batching
        wire = sum(size for _p, size, _r, _a in taken)
        if batching is None:
            parts = [part for frame, _s, _r, _a in taken for part in frame]
        else:
            parts = []
            start = 0
            while start < len(taken):
                end = start + 1
                total = taken[start][1]
                while end < len(taken) and end - start < batching.max_batch_messages:
                    size = taken[end][1]
                    if (
                        total + size > batching.max_batch_bytes
                        or BATCH_HEADER_BYTES + total + size > MAX_FRAME_BYTES
                    ):
                        break
                    total += size
                    end += 1
                run = taken[start:end]
                start = end
                if len(run) > 1:
                    parts.append(batch_frame_head(len(run), total))
                    wire += LENGTH_PREFIX_BYTES + BATCH_HEADER_BYTES
                    self.batches_sent += 1
                    self.batched_frames += len(run)
                    acks = sum(ack for _p, _s, _r, ack in run)
                    if acks and acks < len(run):
                        # AckBatches sharing a batch frame with data
                        # frames: the live analogue of the sim's
                        # piggybacked acks.
                        self.acks_ridden += acks
                for frame, _s, _r, _a in run:
                    parts.extend(frame)
        self.frames_sent += len(taken)
        self.flushes += 1
        self.bytes_sent += wire
        if self._flush_frames_hist is not None:
            self._flush_frames_hist.observe(len(taken))
            self._flush_bytes_hist.observe(wire)
        if self._gate_closed and self.tx_ready:
            self._reopen()
        return parts

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def send_control(self, dst: ProcessId, layer: str, message: Any) -> None:
        """Queue a layer-tagged control message for ``dst``.

        Unlike the ring hop, control traffic may address any configured
        peer; the link is dialled on first use and retried forever until
        :meth:`prune_control_peers` drops the peer.
        """
        if dst == self.node_id:
            raise NetworkError(
                f"node {self.node_id}: control plane does not loop back "
                "to self (local sends go through the scheduler)"
            )
        frame = encode_frame(ControlFrame(layer=layer, inner=message))
        self._control_link(dst).send(
            (frame,), len(frame), self._plan_release(dst, len(frame), "ctl")
        )

    def _control_link(self, dst: ProcessId) -> _Link:
        """The control link to ``dst``, dialled on first use."""
        link = self._control_peers.get(dst)
        if link is None:
            addr = self._peer_addrs.get(dst)
            if addr is None:
                raise NetworkError(
                    f"node {self.node_id}: no address configured for "
                    f"control peer {dst}"
                )
            link = _Link(self, dst, addr, CHANNEL_CONTROL, self._pack_control)
            link.start()
            self._control_peers[dst] = link
        return link

    def _pack_control(self, taken: List[_Queued]) -> List[bytes]:
        self.control_frames_sent += len(taken)
        self.control_flushes += 1
        return [frame for (frame,), _s, _r, _a in taken]

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
        """Drop control links to peers outside ``keep``.

        Called on view install: heartbeats and flush retries to an
        excluded (dead) member would otherwise dial it forever.
        """
        keep = set(keep)
        for pid in list(self._control_peers):
            if pid not in keep:
                self._control_peers.pop(pid).close()
