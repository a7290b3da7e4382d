"""The FSR protocol automaton (paper Section 4).

One :class:`FSRProcess` runs at each cluster node.  It consumes:

* data messages from its ring predecessor (via a network port),
* view events and flush callbacks from the membership layer,
* TO-broadcast requests from the application,

and produces sends to its single ring successor plus TO-deliver upcalls.

The message flow follows the paper's Figure 4; the unified rule used
here (derived case-by-case in DESIGN.md §5) is:

* an **un-sequenced payload** (``FwdData``) is forwarded clockwise until
  it reaches the leader, who assigns the next sequence number;
* a **sequenced payload** (``SeqData``) is forwarded clockwise and
  becomes *stable* when it transits the last backup ``p_t``; it stops at
  the origin's predecessor, which converts it into an ack;
* an **ack** carries the sequence number onward; an unstable ack becomes
  stable at ``p_t``; a stable ack stops at ``p_t``'s predecessor;
* a process marks a message deliverable the first time it observes it
  *stable* (stable ``SeqData``, stabilising at ``p_t``, or stable ack),
  and actual delivery is forced into contiguous sequence order by the
  hold-back queue.

Stability is what makes delivery *uniform*: a stable message is stored
by the leader and all ``t`` backups, so it survives any ``t`` crashes
and view-change recovery (:mod:`repro.core.fsr.recovery`) will finish
delivering it everywhere.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.api import BroadcastListener, TotalOrderBroadcast
from repro.core.fsr.config import FSRConfig
from repro.core.fsr.fairness import FairSendScheduler
from repro.core.fsr.holdback import HoldbackQueue
from repro.core.fsr.messages import (
    AckBatch,
    AckMsg,
    FwdData,
    SeqData,
)
from repro.core.fsr.recovery import (
    FSRFlushState,
    MergedRecovery,
    RetainedMessage,
    build_install_payloads,
    merge_flush_states,
)
from repro.core.fsr.ring import Ring
from repro.core.fsr.segmentation import Reassembler, Segment, split_payload
from repro.errors import ProtocolError
from repro.net.dispatch import Port
from repro.obs.span import SpanLog
from repro.sim.trace import TraceLog
from repro.types import (
    Delivery,
    MessageId,
    ProcessId,
    Scheduler,
    SequenceNumber,
    View,
    ViewId,
)
from repro.vsc.membership import FlushState, GroupMembership

#: Callback fired on every protocol-level (segment) delivery.
ProtocolDeliverCallback = Callable[[Delivery], None]


class FSRProcess(TotalOrderBroadcast):
    """FSR endpoint at one process.

    The cluster harness wires instances together; unit tests drive the
    automaton directly by feeding messages into ``on_message``.
    """

    def __init__(
        self,
        sim: Scheduler,
        port: Port,
        membership: GroupMembership,
        config: FSRConfig,
        trace: Optional[TraceLog] = None,
        tx_gate: Optional[Callable[[], bool]] = None,
        cpu_submit: Optional[Callable[[int, Callable[[], None]], Any]] = None,
        spans: Optional[SpanLog] = None,
        id_factory: Optional[Callable[[], MessageId]] = None,
    ) -> None:
        self.sim = sim
        self.port = port
        self.membership = membership
        self.config = config
        self.me: ProcessId = port.node_id
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        #: Per-message lifecycle spans (repro.obs); disabled by default,
        #: and every emission site guards on ``spans.enabled`` before
        #: building arguments so the disabled cost is one attribute
        #: check and zero allocations.
        self.spans = spans if spans is not None else SpanLog(enabled=False)
        #: Returns True when the NIC TX path can take another message;
        #: the harness wires this to the endpoint, unit tests leave the
        #: default (always ready).
        self._tx_gate = tx_gate if tx_gate is not None else (lambda: True)
        #: Charges origin-side marshalling CPU before a message enters
        #: the ring; ``None`` (unit tests) runs the callback inline.
        self._cpu_submit = cpu_submit
        #: Source of fresh message ids.  The multi-ring fan-out shares
        #: one per-node counter across its S inner rings so app-level
        #: ids stay unique per origin regardless of which ring carried
        #: the message; stand-alone instances use a private counter.
        self._id_factory = id_factory

        self._listener = BroadcastListener()
        self._protocol_deliver_cb: Optional[ProtocolDeliverCallback] = None

        self._view: Optional[View] = None
        self._ring: Optional[Ring] = None
        # Geometry of ``_ring`` as this process sees it, computed once
        # per view by ``on_view`` (the only place ``_ring`` is assigned)
        # so the per-message path reads attributes instead of asking
        # the ring for positions and successors on every hop.
        self._view_id: ViewId = -1  # no view installed yet
        self._n = 0
        self._t = 0
        self._position = 0
        self._successor: ProcessId = self.me
        self._is_leader = False
        #: The successor is the last backup ``p_t``: a stable ack has
        #: covered the whole ring and is consumed here (see _queue_ack).
        self._successor_is_pt = False
        self._started = False
        self._stopped = False
        self._blocked = False
        #: True once this process has installed at least one view; a
        #: joiner installing its first view has no delivery history.
        self._installed_once = False

        # --- sequencing and delivery state -----------------------------
        self._next_seq: SequenceNumber = 1  # used only while leader
        self._holdback = HoldbackQueue(self._on_holdback_release, first_sequence=1)
        self._records: Dict[SequenceNumber, RetainedMessage] = {}
        self._seq_of: Dict[MessageId, SequenceNumber] = {}
        #: Payloads learned before their sequence number (FwdData arc).
        self._known_payloads: Dict[
            MessageId, Tuple[ProcessId, Any, int, Optional[Tuple[MessageId, int, int]]]
        ] = {}
        self._delivered_ids: Set[MessageId] = set()

        # --- stability watermark ---------------------------------------
        self._watermark: SequenceNumber = 0
        self._consumed_acks: Set[SequenceNumber] = set()
        self._consumed_prefix: SequenceNumber = 0
        self._gc_cursor: SequenceNumber = 0

        # --- outgoing traffic ------------------------------------------
        self._scheduler = FairSendScheduler(fairness=config.fairness)
        self._ack_queue: Deque[AckMsg] = deque()

        # --- application state -----------------------------------------
        self._local_counter = 0
        #: Own protocol-level messages not yet delivered, for
        #: re-broadcast after a view change (insertion ordered).
        self._pending_own: "OrderedDict[MessageId, Segment]" = OrderedDict()
        self._reassembler = Reassembler()

        #: Recovered-but-uncommitted deliveries: entries applied from a
        #: view install, released only at the membership layer's commit
        #: (all members stored the merge, so delivering is uniform even
        #: under ``t`` immediate further crashes).  The view id guards
        #: against a superseding install racing the commit.
        self._recovery_pending: List[HoldbackEntry] = []
        self._recovery_view: Optional[int] = None
        #: Highest recovered sequence not yet commit-confirmed; while
        #: any is outstanding this process ships its records in flush
        #: states even from a non-holder ring position, because it may
        #: be the only survivor retaining them.
        self._recovery_floor: SequenceNumber = 0

        #: Messages received for a view not yet installed locally.
        self._future_buffer: List[Tuple[int, ProcessId, Any]] = []
        #: Outstanding marshalling jobs (cancelled on view change so a
        #: queued send backlog does not outlive the view it targeted).
        self._marshal_jobs: Dict[MessageId, Any] = {}

        # --- statistics --------------------------------------------------
        self.stats_broadcasts = 0
        self.stats_deliveries = 0
        self.stats_acks_piggybacked = 0
        self.stats_acks_standalone = 0

        port.on_receive(self.on_message)
        membership.set_client(self)

    # ==================================================================
    # TotalOrderBroadcast API
    # ==================================================================
    def set_listener(self, listener: BroadcastListener) -> None:
        self._listener = listener

    def on_protocol_deliver(self, callback: ProtocolDeliverCallback) -> None:
        """Observe protocol-level (segment) deliveries; used by the
        harness to feed checkers and metrics."""
        self._protocol_deliver_cb = callback

    def start(self) -> None:
        """Join the initial view and begin operating."""
        if self._started:
            return
        self._started = True
        self.membership.start()

    def stop(self) -> None:
        """Halt the automaton (crash or tear-down)."""
        self._stopped = True
        self.membership.stop()

    def broadcast(self, payload: Any, size_bytes: Optional[int] = None) -> MessageId:
        """TO-broadcast ``payload``; see :class:`TotalOrderBroadcast`.

        Payloads larger than ``config.segment_size`` are segmented;
        the returned id identifies the application-level message (its
        first segment).
        """
        if self._stopped:
            raise ProtocolError(f"process {self.me} is stopped")
        if not self._started:
            raise ProtocolError(f"process {self.me} has not been started")
        if size_bytes is None:
            if isinstance(payload, (bytes, bytearray)):
                size_bytes = len(payload)
            else:
                raise ProtocolError(
                    "size_bytes is required for non-bytes payloads"
                )
        self.stats_broadcasts += 1
        app_id = self._next_message_id()
        if self.spans.enabled:
            self.spans.emit(
                self.sim.now, self.me, "broadcast", app_id.origin, app_id.local_seq
            )
        for segment in split_payload(
            app_id, payload, size_bytes, self.config.segment_size
        ):
            seg_id = app_id if segment.count == 1 else self._next_message_id()
            self._pending_own[seg_id] = segment
            self._submit_after_cpu(seg_id, segment)
        return app_id

    def _submit_after_cpu(self, seg_id: MessageId, segment: Segment) -> None:
        """Charge origin-side marshalling CPU, then inject the segment.

        The charge is what every other node pays to process the message
        once (the receive path charges it at each hop); without it a
        2-process ring would exceed the per-node middleware capacity the
        paper's flat ~79 Mb/s reflects.
        """
        if self._cpu_submit is None:
            self._inject_submitted(seg_id, segment, self._view_id)
        else:
            handle = self._cpu_submit(
                segment.size_bytes,
                partial(self._inject_submitted, seg_id, segment, self._view_id),
            )
            if handle is not None:
                self._marshal_jobs[seg_id] = handle

    def _inject_submitted(
        self, seg_id: MessageId, segment: Segment, view_at_submit: ViewId
    ) -> None:
        self._marshal_jobs.pop(seg_id, None)
        if self._stopped or self._blocked:
            return  # the view-change re-broadcast path covers it
        if self._view_id != view_at_submit:
            return  # superseded; re-broadcast already handled it
        if seg_id in self._delivered_ids or seg_id not in self._pending_own:
            return
        self._inject_own(seg_id, segment)
        self._pump()

    def _next_message_id(self) -> MessageId:
        if self._id_factory is not None:
            return self._id_factory()
        self._local_counter += 1
        return MessageId(origin=self.me, local_seq=self._local_counter)

    # ==================================================================
    # VSCClient API (called by the membership layer)
    # ==================================================================
    def on_block(self) -> None:
        """Flush started: stop sending and drop queued outgoing work.

        Cancelled marshalling jobs are re-issued through the pending-own
        re-broadcast after the view installs.
        """
        self._blocked = True
        for handle in self._marshal_jobs.values():
            handle.cancel()
        self._marshal_jobs.clear()

    def collect_flush_state(self) -> FlushState:
        """Contribute recovery state to a flush.

        Only the (old view's) leader and backups ship their retained
        records: stability guarantees they jointly hold every message
        any process could have delivered, and with at most ``t``
        failures at least one of them survives — standard members'
        copies are redundant and would multiply the state-exchange
        cost by ``n``.
        """
        was_holder = self._ring is not None and self._position <= self._t
        # Uncommitted recovery records must ship regardless of ring
        # position: after a coordinator crash mid-install this process
        # may be the only survivor retaining them, and the next merge's
        # uniformity check depends on seeing them.
        recovery_outstanding = self._recovery_floor > self._gc_cursor
        state = FSRFlushState(
            last_delivered=self._holdback.last_delivered,
            watermark=self._watermark,
            records=(
                dict(self._records)
                if was_holder or recovery_outstanding
                else {}
            ),
            fresh=not self._installed_once,
        )
        return FlushState(payload=state, size_bytes=state.size_bytes())

    def merge_states(
        self,
        states: Dict[ProcessId, FlushState],
        receivers: Tuple[ProcessId, ...],
    ) -> Dict[ProcessId, FlushState]:
        """Coordinator-side merge: one pruned install per receiver.

        Receiver ``r`` only needs the merged records above its own
        delivery progress, so the install traffic is proportional to
        how far each member lags, not to the total retained state.
        """
        return build_install_payloads(states, receivers)

    def on_view(self, view: View, state: Optional[FlushState]) -> None:
        """Install a view; reconcile and resume (paper §4.2.1)."""
        self._view = view
        ring = self._ring = Ring.from_view(view, self.config.t)
        self._view_id = view.view_id
        self._n = ring.n
        self._t = ring.t
        self._position = ring.position_of(self.me)
        self._successor = ring.successor(self.me)
        self._is_leader = self.me == ring.leader
        self._successor_is_pt = self._successor == ring.last_backup
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "fsr", "view",
                me=self.me, view_id=view.view_id, members=view.members,
                position=self._position,
            )

        if state is not None:
            self._apply_recovery(state.payload)

        self._blocked = False
        self._installed_once = True
        self._rebroadcast_pending()
        self._drain_future_buffer()
        self._pump()

    def _apply_recovery(self, merged: MergedRecovery) -> None:
        # Old-view deliverability evidence beyond the merge is void;
        # without this, stale held entries would collide with the new
        # leader's reuse of those sequence numbers.
        self._holdback.clear_held()
        if not self._installed_once:
            # Joining process: no history to deliver; start at the
            # oldest point the merged records can serve.
            self._holdback.fast_forward(merged.min_last_delivered + 1)
        # Rebuild retention: own records up to the delivery cursor stay
        # (we delivered them, so they match the global assignment);
        # above it the merged records are authoritative — our copies
        # there may be void old-view assignments that a newer view
        # reassigned to different messages.
        records = {
            seq: record
            for seq, record in self._records.items()
            if seq <= self._holdback.last_delivered
        }
        # Stage everything any survivor may already have delivered.
        # Delivery is DEFERRED to the membership layer's view commit:
        # only once every member has stored the merge is delivering
        # uniform under ``t`` further crashes.  (The old eager delivery
        # here was a real uniformity bug: a coordinator that installed,
        # delivered, and crashed before any other member received its
        # install took the only copies of those messages with it.)
        pending: List[RetainedMessage] = []
        for seq in range(self._holdback.last_delivered + 1, merged.next_sequence):
            record = merged.records.get(seq)
            if record is None:
                raise ProtocolError(
                    f"recovery gap at sequence {seq} (merge promised "
                    f"contiguity up to {merged.next_sequence})"
                )
            # The merge checked ``record.sequence == seq``: the record
            # is its own hold-back entry.
            records[seq] = record
            pending.append(record)
        self._records = records
        self._seq_of = {r.message_id: s for s, r in records.items()}
        self._known_payloads.clear()
        self._recovery_pending = pending
        self._recovery_view = self._view_id
        self._recovery_floor = merged.next_sequence - 1
        self._next_seq = merged.next_sequence
        # The stability watermark does NOT jump here: the merge is
        # stored only at members that installed so far.  It advances at
        # the view commit, or via the first full-circle stable ack of
        # the new view (a full circle implies every member installed and
        # therefore stored the merge).  Retention — and with it the next
        # flush's uniformity guarantee — survives a coordinator crash
        # mid-install.
        self._consumed_acks.clear()
        self._consumed_prefix = merged.next_sequence - 1
        self._scheduler.drain()
        self._ack_queue.clear()

    def on_view_commit(self, view: View) -> None:
        """Every member stored the view's install: release recovery.

        The deferred recovered deliveries are now backed by a copy at
        every member of the new view, so TO-delivering them is uniform;
        the stability watermark advances over the recovered range,
        re-enabling garbage collection.
        """
        if self._stopped or self._recovery_view != view.view_id:
            return
        pending, self._recovery_pending = self._recovery_pending, []
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "fsr", "recovery_commit",
                me=self.me, view_id=view.view_id, released=len(pending),
            )
        for entry in pending:
            self._holdback.mark_deliverable(entry)
        if self._recovery_floor > self._watermark:
            self._watermark = self._recovery_floor
            self._maybe_gc()
        self._pump()

    def _rebroadcast_pending(self) -> None:
        """Re-inject own messages that did not survive the old view."""
        for seg_id, segment in list(self._pending_own.items()):
            if seg_id in self._seq_of:
                # Sequenced and retained by the merge: it delivers at
                # the view commit; re-injecting would duplicate it.
                continue
            if self.trace.enabled:
                self.trace.emit(
                    self.sim.now, "fsr", "rebroadcast", me=self.me, msg=str(seg_id)
                )
            self._inject_own(seg_id, segment)

    def _drain_future_buffer(self) -> None:
        ready = [
            (view_id, src, message)
            for view_id, src, message in self._future_buffer
            if view_id == self._view_id
        ]
        self._future_buffer = [
            (view_id, src, message)
            for view_id, src, message in self._future_buffer
            if view_id > self._view_id
        ]
        for _view_id, src, message in ready:
            self.on_message(src, message)

    # ==================================================================
    # Inbound message handling
    # ==================================================================
    def on_message(self, src: ProcessId, message: Any) -> None:
        """Entry point for all FSR ring traffic."""
        if self._stopped:
            return
        view_id = getattr(message, "view_id", None)
        if view_id is None:
            raise ProtocolError(f"non-FSR message on FSR port: {message!r}")
        if view_id != self._view_id:
            if view_id > self._view_id:
                self._future_buffer.append((view_id, src, message))
            return  # else: stale traffic from a superseded view
        if self._blocked:
            # A flush snapshot has been taken: evidence processed now
            # would create deliveries the view-change merge cannot see,
            # breaking uniform total order.  Treat the message as lost
            # in the membership change; recovery re-issues what matters.
            return
        if self._ring is None:
            raise ProtocolError(f"process {self.me} has no installed view yet")

        watermark = getattr(message, "watermark", -1)
        if watermark > self._watermark:
            self._watermark = watermark
            self._maybe_gc()
        if isinstance(message, AckBatch):
            for ack in message.acks:
                self._handle_ack(ack)
        elif isinstance(message, FwdData):
            for ack in message.piggybacked:
                self._handle_ack(ack)
            self._handle_fwd(message)
        elif isinstance(message, SeqData):
            for ack in message.piggybacked:
                self._handle_ack(ack)
            self._handle_seq(message)
        else:
            raise ProtocolError(f"unexpected FSR message type: {message!r}")
        self._pump()

    # ------------------------------------------------------------------
    # Per-hop copies below are built positionally, in field order:
    #   FwdData(message_id, origin, payload, payload_size, view_id,
    #           watermark, piggybacked, segment)
    #   SeqData(message_id, origin, payload, payload_size, sequence,
    #           stable, view_id, watermark, piggybacked, segment)
    #   AckMsg(message_id, sequence, stable, view_id)
    #   RetainedMessage(message_id, origin, sequence, payload,
    #                   payload_size, segment)
    # ------------------------------------------------------------------
    def _handle_fwd(self, msg: FwdData) -> None:
        message_id = msg.message_id
        if message_id in self._delivered_ids:
            # The transport resends queued frames after a reconnect.  A
            # copy that arrives once the message was delivered (and, at
            # the leader, garbage-collected out of ``_seq_of``) must not
            # be sequenced a second time, nor its payload re-learned.
            return
        self._known_payloads[message_id] = (
            msg.origin, msg.payload, msg.payload_size, msg.segment
        )
        if self._is_leader:
            if self._blocked:
                # Sequencing while blocked would create sequence numbers
                # invisible to the flush already under way; the origin
                # re-broadcasts after the view change instead.
                return
            self._sequence(
                message_id, msg.origin, msg.payload, msg.payload_size, msg.segment
            )
        else:
            if self.spans.enabled:
                app = msg.segment[0] if msg.segment is not None else message_id
                self.spans.emit(
                    self.sim.now, self.me, "fwd_hop", app.origin, app.local_seq,
                    hop=self._position,
                )
            self._scheduler.enqueue_forward(
                FwdData(
                    message_id, msg.origin, msg.payload, msg.payload_size,
                    msg.view_id, -1, [], msg.segment,
                )
            )

    def _sequence(
        self,
        message_id: MessageId,
        origin: ProcessId,
        payload: Any,
        payload_size: int,
        segment: Optional[Tuple[MessageId, int, int]],
    ) -> None:
        """Leader only: assign the next sequence number and emit."""
        if message_id in self._seq_of:
            return  # duplicate (can only happen through recovery races)
        sequence = self._next_seq
        self._next_seq = sequence + 1
        self._records[sequence] = RetainedMessage(
            message_id, origin, sequence, payload, payload_size, segment
        )
        self._seq_of[message_id] = sequence
        stable_at_birth = self._t == 0
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "fsr", "sequence",
                me=self.me, msg=str(message_id), seq=sequence,
                stable=stable_at_birth,
            )
        if self.spans.enabled:
            app = segment[0] if segment is not None else message_id
            self.spans.emit(
                self.sim.now, self.me, "sequenced", app.origin, app.local_seq,
                sequence=sequence,
            )
            if stable_at_birth:
                # t = 0: the leader's copy alone is the stability set.
                self.spans.emit(
                    self.sim.now, self.me, "stable", app.origin, app.local_seq,
                    sequence=sequence,
                )
        if stable_at_birth:
            self._mark_deliverable(sequence)
        if self._n == 1:
            self._advance_consumed(sequence)
            return
        if self._successor == origin:
            # The origin is the leader's direct successor: the payload
            # has nowhere left to go, convert straight into an ack.
            self._queue_ack(message_id, sequence, stable_at_birth, self._view_id)
            return
        out = SeqData(
            message_id, origin, payload, payload_size, sequence,
            stable_at_birth, self._view_id, -1, [], segment,
        )
        if origin == self.me:
            self._scheduler.enqueue_own(out)
        else:
            self._scheduler.enqueue_forward(out)

    def _handle_seq(self, msg: SeqData) -> None:
        sequence = msg.sequence
        self._learn_sequenced(
            msg.message_id, msg.origin, msg.payload, msg.payload_size,
            sequence, msg.segment,
        )
        stabilising = (not msg.stable) and self._position == self._t
        if self.spans.enabled:
            app = msg.segment[0] if msg.segment is not None else msg.message_id
            if 0 < self._position <= self._t and not msg.stable:
                # A backup just retained its copy (via _learn_sequenced).
                self.spans.emit(
                    self.sim.now, self.me, "stored", app.origin, app.local_seq,
                    sequence=sequence, hop=self._position,
                )
            if stabilising:
                # Transited the last backup p_t: now survives any t crashes.
                self.spans.emit(
                    self.sim.now, self.me, "stable", app.origin, app.local_seq,
                    sequence=sequence,
                )
        out_stable = msg.stable or stabilising
        if out_stable:
            self._mark_deliverable(sequence)

        if self._successor == msg.origin:
            # Payload has completed its circle: emit the ack phase.
            self._queue_ack(msg.message_id, sequence, out_stable, self._view_id)
            return
        self._scheduler.enqueue_forward(
            SeqData(
                msg.message_id, msg.origin, msg.payload, msg.payload_size,
                sequence, out_stable, msg.view_id, -1, [], msg.segment,
            )
        )

    def _handle_ack(self, ack: AckMsg) -> None:
        sequence = ack.sequence
        self._learn_from_ack(ack)
        stabilising = (not ack.stable) and self._position == self._t
        if stabilising and self.spans.enabled:
            record = self._records.get(sequence)
            seg = record.segment if record is not None else None
            app = seg[0] if seg is not None else ack.message_id
            self.spans.emit(
                self.sim.now, self.me, "stable", app.origin, app.local_seq,
                sequence=sequence,
            )
        out_stable = ack.stable or stabilising
        if out_stable:
            self._mark_deliverable(sequence)
        self._queue_ack(ack.message_id, sequence, out_stable, ack.view_id)

    def _learn_sequenced(
        self,
        message_id: MessageId,
        origin: ProcessId,
        payload: Any,
        payload_size: int,
        sequence: SequenceNumber,
        segment: Optional[Tuple[MessageId, int, int]],
    ) -> None:
        known = self._seq_of.get(message_id)
        if known is not None and known != sequence:
            raise ProtocolError(
                f"{message_id} sequenced twice: {known} and {sequence}"
            )
        if sequence <= self._gc_cursor:
            # A resent copy of a collected message: the cursor never
            # returns to it, so anything stored now would stay forever.
            return
        self._seq_of[message_id] = sequence
        if sequence not in self._records:
            self._records[sequence] = RetainedMessage(
                message_id, origin, sequence, payload, payload_size, segment
            )

    def _learn_from_ack(self, ack: AckMsg) -> None:
        if ack.sequence in self._records or ack.sequence <= self._gc_cursor:
            return
        if ack.message_id in self._delivered_ids:
            return
        known = self._known_payloads.get(ack.message_id)
        if known is None:
            own = self._pending_own.get(ack.message_id)
            if own is None:
                raise ProtocolError(
                    f"process {self.me} received ack for {ack.message_id} "
                    "without ever seeing its payload"
                )
            known = (self.me, own.payload, own.size_bytes, _segment_meta(own))
        origin, payload, payload_size, segment = known
        self._learn_sequenced(
            ack.message_id, origin, payload, payload_size, ack.sequence, segment
        )

    # ==================================================================
    # Delivery
    # ==================================================================
    def _mark_deliverable(self, sequence: SequenceNumber) -> None:
        record = self._records.get(sequence)
        if record is None:
            # Below the GC cursor means it was already delivered by all.
            if sequence > self._gc_cursor:
                raise ProtocolError(
                    f"process {self.me}: sequence {sequence} deliverable "
                    "but no record retained"
                )
            return
        # The retained record is the hold-back entry.
        self._holdback.mark_deliverable(record)

    def _on_holdback_release(self, entry: RetainedMessage) -> None:
        message_id = entry.message_id
        if message_id in self._delivered_ids:
            raise ProtocolError(f"{message_id} delivered twice at {self.me}")
        self._delivered_ids.add(message_id)
        self._pending_own.pop(message_id, None)
        self.stats_deliveries += 1
        if self.trace.enabled:
            self.trace.emit(
                self.sim.now, "fsr", "deliver",
                me=self.me, msg=str(message_id), seq=entry.sequence,
            )
        if self._protocol_deliver_cb is not None:
            self._protocol_deliver_cb(
                Delivery(
                    self.me, message_id, entry.sequence, self.sim.now,
                    entry.payload_size,
                )
            )
        # Application-level delivery: an unsegmented message is complete
        # as it stands, a segment goes through reassembly.
        if entry.segment is None:
            app_id, payload, size = message_id, entry.payload, entry.payload_size
        else:
            app_id, index, count = entry.segment
            completed = self._reassembler.on_segment(
                Segment(app_id, index, count, entry.payload, entry.payload_size)
            )
            if completed is None:
                self._maybe_gc()
                return
            payload, size = completed
        if self.spans.enabled:
            self.spans.emit(
                self.sim.now, self.me, "delivered",
                app_id.origin, app_id.local_seq, sequence=entry.sequence,
            )
        self._listener.deliver(entry.origin, app_id, payload, size)
        self._maybe_gc()

    # ==================================================================
    # Stability watermark + garbage collection
    # ==================================================================
    def _advance_consumed(self, sequence: SequenceNumber) -> None:
        if sequence <= self._consumed_prefix:
            return  # resent ack: already counted, must not pile up
        self._consumed_acks.add(sequence)
        while self._consumed_prefix + 1 in self._consumed_acks:
            self._consumed_prefix += 1
            self._consumed_acks.discard(self._consumed_prefix)
        if self._consumed_prefix > self._watermark:
            self._watermark = self._consumed_prefix
            self._maybe_gc()

    def _maybe_gc(self) -> None:
        limit = min(self._watermark, self._holdback.last_delivered)
        while self._gc_cursor < limit:
            self._gc_cursor += 1
            record = self._records.pop(self._gc_cursor, None)
            if record is not None:
                self._seq_of.pop(record.message_id, None)
                self._known_payloads.pop(record.message_id, None)

    # ==================================================================
    # Outbound traffic
    # ==================================================================
    def _inject_own(self, seg_id: MessageId, segment: Segment) -> None:
        if self._ring is None:
            raise ProtocolError(f"process {self.me} has no installed view yet")
        seg_meta = _segment_meta(segment)
        if self._is_leader:  # which the only member of a ring of one is
            self._sequence(
                seg_id, self.me, segment.payload, segment.size_bytes, seg_meta
            )
            return
        self._scheduler.enqueue_own(
            FwdData(
                seg_id, self.me, segment.payload, segment.size_bytes,
                self._view_id, -1, [], seg_meta,
            )
        )

    def _queue_ack(
        self,
        message_id: MessageId,
        sequence: SequenceNumber,
        stable: bool,
        view_id: ViewId,
    ) -> None:
        """Queue an ack for the successor — or consume it.

        A stable ack whose next hop would be ``p_t`` has covered the
        whole ring; this process (position ``t - 1``) is the stability
        consumer, whose contiguous consumed prefix drives the GC
        watermark.  Applying the rule here (rather than only on
        receipt) also covers acks *created* at the consumer position,
        e.g. the leader's own broadcasts with ``t = 0``.
        """
        if stable and self._successor_is_pt:
            self._advance_consumed(sequence)
            return
        self._ack_queue.append(AckMsg(message_id, sequence, stable, view_id))

    def _pump(self) -> None:
        """Push traffic to the successor while the TX path is ready."""
        if self._stopped or self._blocked or self._ring is None:
            return
        ack_queue = self._ack_queue
        if self._n == 1:
            ack_queue.clear()
            return
        successor = self._successor
        piggyback = self.config.piggyback_acks
        while self._tx_gate():
            if not piggyback and ack_queue:
                # Ablation mode (§4.2.2 disabled): the naive policy sends
                # every ack immediately as its own message, ahead of data.
                ack = ack_queue.popleft()
                self.stats_acks_standalone += 1
                self.port.send(
                    successor, AckBatch([ack], self._view_id, self._watermark)
                )
                continue
            message = self._scheduler.pop_next()
            if message is not None:
                message.watermark = self._watermark
                if piggyback and ack_queue:
                    count = min(len(ack_queue), self.config.max_piggybacked_acks)
                    message.piggybacked = [
                        ack_queue.popleft() for _ in range(count)
                    ]
                    self.stats_acks_piggybacked += count
                self.port.send(successor, message)
                continue
            if ack_queue:
                # Idle ring: ship pending acks right away so a lone
                # broadcast is not delayed waiting for a carrier
                # (paper §4.2.2's low-load latency case).
                acks = list(ack_queue)
                ack_queue.clear()
                self.stats_acks_standalone += len(acks)
                self.port.send(
                    successor, AckBatch(acks, self._view_id, self._watermark)
                )
                continue
            break

    def on_tx_ready(self) -> None:
        """NIC TX idle notification from the harness."""
        self._pump()

    # -- introspection for tests ---------------------------------------
    @property
    def last_delivered_sequence(self) -> SequenceNumber:
        return self._holdback.last_delivered

    @property
    def watermark(self) -> SequenceNumber:
        return self._watermark

    @property
    def retained_count(self) -> int:
        return len(self._records)

    @property
    def pending_own(self) -> int:
        """Own data messages queued for injection, not yet sent."""
        return self._scheduler.pending_own

    @property
    def ring(self) -> Optional[Ring]:
        return self._ring

    @property
    def view(self) -> Optional[View]:
        return self._view


def _segment_meta(segment: Segment) -> Optional[Tuple[MessageId, int, int]]:
    """Wire form of a segment's place in its application message, or
    ``None`` for a whole message."""
    if segment.count == 1:
        return None
    return (segment.app_message_id, segment.index, segment.count)
