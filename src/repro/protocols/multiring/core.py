"""The multi-ring fan-out endpoint at one node.

One :class:`MultiRingProcess` owns S unmodified :class:`FSRProcess`
instances — one per inner ring — plus the bucket-interleaving
:class:`InterleaveMux` that folds their per-ring total orders into the
single global order exposed to the application.

Responsibilities:

* **Routing** — a TO-broadcast enters the ring serving its sender's
  bucket in the current epoch (``ring_of_sender``); the epoch is the
  installed view id, so a view change rotates every bucket to the next
  ring.  Messages already handed to an inner ring are *not* re-routed:
  FSR's own view-change recovery re-broadcasts them inside their
  original ring, keeping each per-ring stream append-only.
* **Membership fan-out** — the node runs ONE membership/flush automaton;
  this class implements its :class:`~repro.vsc.membership.VSCClient`
  interface and fans every callback out to the S inner automata, giving
  each ring a rotated view of the same member set (so the S sequencer
  chains start at different nodes) and a composite flush state keyed by
  ring.
* **Noop filling** — when the multiplexer's due ring is idle while real
  traffic waits on other rings, the due ring's inner leader broadcasts a
  weighted noop through that ring after ``noop_delay_s``, releasing the
  backlog (see :mod:`repro.protocols.multiring.mux`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.api import BroadcastListener, TotalOrderBroadcast
from repro.core.fsr.process import (
    DeliveredIds,
    FSRProcess,
    ProtocolDeliverCallback,
)
from repro.errors import ProtocolError
from repro.net.dispatch import Port
from repro.obs.span import SpanLog
from repro.protocols.multiring.buckets import ring_of_sender, rotated_members
from repro.protocols.multiring.config import MultiRingConfig
from repro.protocols.multiring.mux import (
    InterleaveMux,
    RealItem,
    decode_noop,
    encode_noop,
)
from repro.sim.trace import TraceLog
from repro.types import Delivery, MessageId, ProcessId, Scheduler, View
from repro.vsc.membership import FlushState, GroupMembership


@dataclass
class RingLink:
    """Network resources the harness provisions for ONE inner ring.

    Each ring gets its own port (its own simulated NIC, or its own live
    TCP transport) so the S rings genuinely parallelise the per-node
    send path instead of multiplexing one queue.
    """

    ring: int
    port: Port
    #: True when this ring's TX path can accept another message.
    tx_gate: Callable[[], bool]
    #: Registers a callback fired when this ring's TX path drains.
    on_tx_idle: Callable[[Callable[[], None]], None]
    #: Charges marshalling CPU on this ring's core; ``None`` runs inline.
    cpu_submit: Optional[Callable[[int, Callable[[], None]], Any]] = None


class _InnerMembership:
    """Membership stub handed to each inner :class:`FSRProcess`.

    The node runs exactly one real :class:`GroupMembership`; the inner
    automata must not start/stop it or register as its client — the
    fan-out does both.  Their lifecycle calls land here instead.
    """

    def __init__(self) -> None:
        self.client: Optional[Any] = None

    def set_client(self, client: Any) -> None:
        self.client = client

    def start(self) -> None:  # the fan-out starts the real membership
        pass

    def stop(self) -> None:
        pass


class _RingTaggedSpanLog:
    """Span-log proxy stamping every emission with its ring id."""

    def __init__(self, base: SpanLog, ring: int) -> None:
        self._base = base
        self._ring = ring

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    def emit(self, *args: Any, **kwargs: Any) -> None:
        kwargs.setdefault("ring", self._ring)
        self._base.emit(*args, **kwargs)


class MultiRingProcess(TotalOrderBroadcast):
    """Multi-ring sharded total order broadcast endpoint at one node."""

    def __init__(
        self,
        sim: Scheduler,
        membership: GroupMembership,
        config: MultiRingConfig,
        ring_links: Sequence[RingLink],
        trace: Optional[TraceLog] = None,
        spans: Optional[SpanLog] = None,
    ) -> None:
        if len(ring_links) != config.shards:
            raise ProtocolError(
                f"need exactly {config.shards} ring links, got {len(ring_links)}"
            )
        self.sim = sim
        self.membership = membership
        self.config = config
        self.me: ProcessId = ring_links[0].port.node_id
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.spans = spans if spans is not None else SpanLog(enabled=False)

        self._listener = BroadcastListener()
        self._protocol_deliver_cb: Optional[ProtocolDeliverCallback] = None

        self._view: Optional[View] = None
        #: Bucket-rotation epoch: the id of the installed view.
        self._epoch = 0
        self._started = False
        self._stopped = False
        self._blocked = False
        self._local_counter = 0

        self._mux = InterleaveMux(config.shards, self._on_mux_deliver)

        #: Rings where this node (as inner leader) has armed a noop timer.
        self._noop_armed: Set[int] = set()
        #: Rings with one of this node's noops still in flight.
        self._noop_outstanding: Set[int] = set()

        # --- statistics (names read by the live node's final record) ---
        self.stats_broadcasts = 0
        self.stats_deliveries = 0

        self.inner: List[FSRProcess] = []
        self._ring_views: List[Optional[View]] = [None] * config.shards
        # The inner rings draw ids from one counter, so they share one
        # record of the ids delivered.
        delivered = DeliveredIds()
        for link in ring_links:
            process = FSRProcess(
                sim,
                link.port,
                _InnerMembership(),
                config.fsr,
                trace=trace,
                tx_gate=link.tx_gate,
                cpu_submit=link.cpu_submit,
                spans=_RingTaggedSpanLog(self.spans, link.ring),  # type: ignore[arg-type]
                id_factory=self._next_message_id,
                delivered=delivered,
            )
            link.on_tx_idle(process.on_tx_ready)
            process.set_listener(
                BroadcastListener(self._inner_listener(link.ring))
            )
            self.inner.append(process)

        membership.set_client(self)

    def _inner_listener(self, ring: int) -> Callable[..., None]:
        def on_deliver(
            origin: ProcessId, message_id: MessageId, payload: Any, size_bytes: int
        ) -> None:
            self._on_inner_deliver(ring, origin, message_id, payload, size_bytes)

        return on_deliver

    def _next_message_id(self) -> MessageId:
        self._local_counter += 1
        return MessageId(origin=self.me, local_seq=self._local_counter)

    # ==================================================================
    # TotalOrderBroadcast API
    # ==================================================================
    def set_listener(self, listener: BroadcastListener) -> None:
        self._listener = listener

    def on_protocol_deliver(self, callback: ProtocolDeliverCallback) -> None:
        """Observe the multiplexed (global total order) delivery stream."""
        self._protocol_deliver_cb = callback

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        # Inner automata first: the membership's bootstrap view install
        # calls back into on_view synchronously.
        for process in self.inner:
            process.start()
        self.membership.start()

    def stop(self) -> None:
        self._stopped = True
        for process in self.inner:
            process.stop()
        self.membership.stop()

    def broadcast(self, payload: Any, size_bytes: Optional[int] = None) -> MessageId:
        """TO-broadcast via the ring serving this sender's bucket."""
        if self._stopped:
            raise ProtocolError(f"process {self.me} is stopped")
        if not self._started:
            raise ProtocolError(f"process {self.me} has not been started")
        ring = ring_of_sender(
            self.me, self._epoch, self.config.shards, self.config.num_buckets
        )
        app_id = self.inner[ring].broadcast(payload, size_bytes)
        self.stats_broadcasts += 1
        return app_id

    # ==================================================================
    # Multiplexer input (inner per-ring total orders)
    # ==================================================================
    def _on_inner_deliver(
        self,
        ring: int,
        origin: ProcessId,
        message_id: MessageId,
        payload: Any,
        size_bytes: int,
    ) -> None:
        weight = decode_noop(payload)
        if weight is not None:
            if origin == self.me:
                self._noop_outstanding.discard(ring)
            self._mux.push_noop(ring, weight)
        else:
            self._mux.push_real(ring, origin, message_id, payload, size_bytes)
        self._maybe_arm_noop()

    def _on_mux_deliver(
        self, ring: int, slot: int, sequence: int, item: RealItem
    ) -> None:
        self.stats_deliveries += 1
        if self._protocol_deliver_cb is not None:
            self._protocol_deliver_cb(
                Delivery(
                    process=self.me,
                    message_id=item.message_id,
                    sequence=sequence,
                    time=self.sim.now,
                    size_bytes=item.size_bytes,
                    ring=ring,
                    slot=slot,
                )
            )
        self._listener.deliver(
            item.origin, item.message_id, item.payload, item.size_bytes
        )

    # ==================================================================
    # Noop filling (multiplexer head-of-line blocking relief)
    # ==================================================================
    def _maybe_arm_noop(self) -> None:
        """Arm the noop timer if this node leads the blocked due ring."""
        if self._stopped or self._blocked or not self._mux.blocked:
            return
        due = self._mux.due_ring
        if due in self._noop_armed or due in self._noop_outstanding:
            return
        ring = self.inner[due].ring
        if ring is None or ring.leader != self.me:
            return
        self._noop_armed.add(due)
        self.sim.schedule(
            self.config.noop_delay_s, self._noop_timer_fired, due, self._epoch
        )

    def _noop_timer_fired(self, due: int, epoch_at_arm: int) -> None:
        self._noop_armed.discard(due)
        if self._stopped or self._blocked or self._epoch != epoch_at_arm:
            return
        if not self._mux.blocked or self._mux.due_ring != due:
            return
        if due in self._noop_outstanding:
            return
        ring = self.inner[due].ring
        if ring is None or ring.leader != self.me:
            return
        # One noop covers the whole backlog: every queued real message
        # needs at most one pass of the due ring's slots to release.
        weight = max(1, self._mux.pending_real())
        self.trace.emit(
            self.sim.now, "multiring", "noop",
            me=self.me, ring=due, weight=weight,
        )
        self._noop_outstanding.add(due)
        self.inner[due].broadcast(encode_noop(weight))

    # ==================================================================
    # VSCClient API (fan-out of the single real membership)
    # ==================================================================
    def on_block(self) -> None:
        self._blocked = True
        for process in self.inner:
            process.on_block()

    def collect_flush_state(self) -> FlushState:
        """Composite flush state: one inner state per ring."""
        states = {
            ring: process.collect_flush_state()
            for ring, process in enumerate(self.inner)
        }
        return FlushState(
            payload=states,
            size_bytes=sum(state.size_bytes for state in states.values()),
        )

    def merge_states(
        self,
        states: Dict[ProcessId, FlushState],
        receivers: Tuple[ProcessId, ...],
    ) -> Dict[ProcessId, FlushState]:
        """Coordinator-side merge, ring by ring, recombined per receiver."""
        per_ring: List[Dict[ProcessId, FlushState]] = []
        for ring, process in enumerate(self.inner):
            ring_states = {
                member: state.payload[ring] for member, state in states.items()
            }
            per_ring.append(process.merge_states(ring_states, receivers))
        out: Dict[ProcessId, FlushState] = {}
        for receiver in receivers:
            merged = {ring: per_ring[ring][receiver] for ring in range(len(self.inner))}
            out[receiver] = FlushState(
                payload=merged,
                size_bytes=sum(state.size_bytes for state in merged.values()),
            )
        return out

    def on_view(self, view: View, state: Optional[FlushState]) -> None:
        """Install the view in every inner ring, rotated per ring.

        The epoch (= view id) advances the bucket rotation, so buckets
        previously served by a ring whose sequencer chain died are now
        served by the next ring over — new broadcasts immediately take
        the rotated route, while each inner ring recovers its own
        in-flight traffic through ordinary FSR recovery.
        """
        self._view = view
        self._epoch = view.view_id
        self._noop_armed.clear()  # stale timers no-op via the epoch check
        self.trace.emit(
            self.sim.now, "multiring", "view",
            me=self.me, view_id=view.view_id, members=view.members,
        )
        for ring, process in enumerate(self.inner):
            ring_view = View(
                view_id=view.view_id,
                members=rotated_members(view.members, ring, self.config.shards),
            )
            self._ring_views[ring] = ring_view
            ring_state = state.payload.get(ring) if state is not None else None
            process.on_view(ring_view, ring_state)
        self._blocked = False
        self._maybe_arm_noop()

    def on_view_commit(self, view: View) -> None:
        for ring, process in enumerate(self.inner):
            ring_view = self._ring_views[ring]
            if ring_view is not None and ring_view.view_id == view.view_id:
                process.on_view_commit(ring_view)
        self._maybe_arm_noop()

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def stats_acks_piggybacked(self) -> int:
        return sum(process.stats_acks_piggybacked for process in self.inner)

    @property
    def stats_acks_standalone(self) -> int:
        return sum(process.stats_acks_standalone for process in self.inner)

    @property
    def view(self) -> Optional[View]:
        return self._view

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def mux(self) -> InterleaveMux:
        return self._mux
