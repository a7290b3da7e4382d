"""Reliable FIFO point-to-point channels.

The paper assumes reliable FIFO channels between correct processes (in
practice, TCP over the switched LAN).  On a loss-free simulated network
the raw NIC path already *is* reliable FIFO, so :class:`ChannelStack`
passes messages straight through with zero overhead.  When the network
is configured with a non-zero ``loss_rate`` the stack switches to a
go-back-N ARQ: per-peer sequence numbers, cumulative acknowledgements,
and timer-driven retransmission — so protocol layers above never see
loss, only delay.

Retransmission gives up after ``MAX_RETRIES`` attempts; by then the
peer is crashed and the failure detector / membership layer is
responsible for excluding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.sim.trace import TraceLog
from repro.types import ProcessId, TimerHandle

if TYPE_CHECKING:  # the simulated NIC: a live node imports only MAX_RETRIES
    from repro.net.network import NetworkEndpoint
    from repro.net.params import NetworkParams
    from repro.sim.engine import Simulator

#: Bytes of channel header prepended to every data message under ARQ.
CHANNEL_HEADER_BYTES = 12
#: Size of a standalone cumulative acknowledgement.
CHANNEL_ACK_BYTES = 12
#: Retransmission attempts before a peer is declared unreachable.
MAX_RETRIES = 30

ReceiveHandler = Callable[[ProcessId, Any], None]


@dataclass
class _ChanData:
    """ARQ envelope for one application message."""

    seq: int
    payload: Any
    payload_size: int

    def wire_size_bytes(self) -> int:
        return self.payload_size + CHANNEL_HEADER_BYTES


@dataclass
class _ChanAck:
    """Cumulative acknowledgement: everything <= ``cum_seq`` received."""

    cum_seq: int

    def wire_size_bytes(self) -> int:
        return CHANNEL_ACK_BYTES


@dataclass
class _SenderState:
    next_seq: int = 0
    #: Sent but unacknowledged, in seq order: (seq, envelope).
    unacked: List[Tuple[int, _ChanData]] = field(default_factory=list)
    retransmit_timer: Optional[TimerHandle] = None
    retries: int = 0
    gave_up: bool = False


@dataclass
class _ReceiverState:
    expected_seq: int = 0
    #: Out-of-order buffer: seq -> envelope.
    pending: Dict[int, _ChanData] = field(default_factory=dict)


class ReliableChannel:
    """Sender+receiver ARQ state for one direction of one peer pair."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: NetworkEndpoint,
        peer: ProcessId,
        params: NetworkParams,
        deliver: ReceiveHandler,
        trace: TraceLog,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.peer = peer
        self.params = params
        self.deliver = deliver
        self.trace = trace
        self.tx = _SenderState()
        self.rx = _ReceiverState()

    # ------------------------------ sending ------------------------------
    def send(self, message: Any, size_bytes: int) -> None:
        if self.tx.gave_up:
            return
        envelope = _ChanData(
            seq=self.tx.next_seq, payload=message, payload_size=size_bytes
        )
        self.tx.next_seq += 1
        self.tx.unacked.append((envelope.seq, envelope))
        self.endpoint.send(self.peer, envelope)
        self._arm_timer()

    def _arm_timer(self) -> None:
        if self.tx.retransmit_timer is not None or not self.tx.unacked:
            return
        # Capped exponential backoff: the first retransmit fires after
        # the base timeout; each further unsuccessful retransmit doubles
        # the wait (factor configurable) up to the configured cap, so a
        # loss burst never degenerates into a retransmit storm.  The
        # timeout is additionally floored at the outstanding window's
        # round-trip serialisation cost — no ack can arrive before the
        # window has even crossed the wire.
        outstanding = sum(env.wire_size_bytes() for _, env in self.tx.unacked)
        self.tx.retransmit_timer = self.sim.schedule(
            self.params.retransmit_timeout_for(self.tx.retries, outstanding),
            self._on_timeout,
        )

    def _on_timeout(self) -> None:
        self.tx.retransmit_timer = None
        if not self.tx.unacked or self.tx.gave_up:
            return
        self.tx.retries += 1
        if self.tx.retries > MAX_RETRIES:
            self.tx.gave_up = True
            self.trace.emit(
                self.sim.now, "chan", "gave_up", peer=self.peer,
                unacked=len(self.tx.unacked),
            )
            self.tx.unacked.clear()
            return
        # Go-back-N: retransmit everything outstanding, in order.
        for _seq, envelope in self.tx.unacked:
            self.endpoint.send(self.peer, envelope)
        self.trace.emit(
            self.sim.now, "chan", "retransmit", peer=self.peer,
            count=len(self.tx.unacked), attempt=self.tx.retries,
        )
        self._arm_timer()

    def on_ack(self, ack: _ChanAck) -> None:
        before = len(self.tx.unacked)
        self.tx.unacked = [
            (seq, env) for seq, env in self.tx.unacked if seq > ack.cum_seq
        ]
        if len(self.tx.unacked) < before:
            self.tx.retries = 0
        if not self.tx.unacked and self.tx.retransmit_timer is not None:
            self.tx.retransmit_timer.cancel()
            self.tx.retransmit_timer = None

    # ----------------------------- receiving -----------------------------
    def on_data(self, envelope: _ChanData) -> None:
        if envelope.seq >= self.rx.expected_seq:
            self.rx.pending.setdefault(envelope.seq, envelope)
        while self.rx.expected_seq in self.rx.pending:
            ready = self.rx.pending.pop(self.rx.expected_seq)
            self.rx.expected_seq += 1
            self.deliver(self.peer, ready.payload)
        # Cumulative ack for everything contiguously received.
        self.endpoint.send(self.peer, _ChanAck(cum_seq=self.rx.expected_seq - 1))

    def close(self) -> None:
        """Stop retransmitting to this peer (it left or crashed)."""
        self.tx.gave_up = True
        self.tx.unacked.clear()
        if self.tx.retransmit_timer is not None:
            self.tx.retransmit_timer.cancel()
            self.tx.retransmit_timer = None


class ChannelStack:
    """Per-node bundle of reliable channels to every peer.

    On loss-free networks this is a zero-overhead passthrough; with loss
    it transparently runs ARQ per peer.  Protocols use it exactly like a
    :class:`~repro.net.network.NetworkEndpoint`::

        stack = ChannelStack(sim, endpoint, params)
        stack.on_receive(my_handler)
        stack.send(dst, message)
    """

    def __init__(
        self,
        sim: Simulator,
        endpoint: NetworkEndpoint,
        params: NetworkParams,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.params = params
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self._reliable = params.loss_rate > 0.0 or params.force_reliable
        self._handler: Optional[ReceiveHandler] = None
        self._channels: Dict[ProcessId, ReliableChannel] = {}
        endpoint.on_receive(self._on_raw_receive)

    @property
    def node_id(self) -> ProcessId:
        return self.endpoint.node_id

    def on_receive(self, handler: ReceiveHandler) -> None:
        """Register the in-order delivery upcall."""
        self._handler = handler

    def send(self, dst: ProcessId, message: Any, size_bytes: Optional[int] = None) -> None:
        """Send ``message`` reliably and in FIFO order to ``dst``."""
        if not self._reliable:
            self.endpoint.send(dst, message, size_bytes)
            return
        if size_bytes is None:
            from repro.net.message import message_size

            size_bytes = message_size(message)
        self._channel(dst).send(message, size_bytes)

    def close_peer(self, dst: ProcessId) -> None:
        """Drop retransmission state toward ``dst`` (peer excluded)."""
        channel = self._channels.get(dst)
        if channel is not None:
            channel.close()

    # ------------------------------------------------------------------
    def _channel(self, peer: ProcessId) -> ReliableChannel:
        channel = self._channels.get(peer)
        if channel is None:
            channel = ReliableChannel(
                self.sim, self.endpoint, peer, self.params, self._deliver, self.trace
            )
            self._channels[peer] = channel
        return channel

    def _on_raw_receive(self, src: ProcessId, message: Any) -> None:
        if not self._reliable:
            self._deliver(src, message)
            return
        channel = self._channel(src)
        if isinstance(message, _ChanAck):
            channel.on_ack(message)
        elif isinstance(message, _ChanData):
            channel.on_data(message)
        else:
            # Raw message from a peer not running ARQ (mixed configs in
            # tests): deliver as-is.
            self._deliver(src, message)

    def _deliver(self, src: ProcessId, message: Any) -> None:
        if self._handler is not None:
            self._handler(src, message)
