"""One FSR process hosted in one OS process, over real TCP.

``run_node(config)`` is the whole lifetime of a live cluster member, a
:class:`LiveNode` taken through four steps:

1. **build** (the constructor) — the *same* :class:`FSRProcess` and
   :class:`GroupMembership` the simulator runs, on an
   :class:`AsyncioScheduler`, talking to a TCP :class:`RingTransport`
   (its ``Port``) instead of the simulated NIC; it awaits nothing and
   opens no socket;
2. **start** — listen, barrier on evidence (ring connectivity and, with
   live membership, every member's listener up), install the bootstrap
   view and start; a sender then drives a closed-loop windowed workload
   until the deadline (or a fixed message count), then broadcasts the
   zero-length end marker;
3. **run** — poll until the stop rule holds (PROTOCOL.md App. E);
4. **record** — shut down and return a JSON-able record of every
   broadcast and delivery, timestamped with the system-wide monotonic
   clock so the runner can merge logs across processes.

Membership is **static** (default: the detector never suspects anyone
and membership's port is a :class:`SilentPort` that rejects any use)
or **live** (``view_changes=True``, the live chaos campaign): a
:class:`HeartbeatFailureDetector` over the transport's control plane —
its timeout the ceiling for silent failures, the transport's crash
evidence (``on_peer_refused``) the fast path for a kill — and
:class:`GroupMembership`'s flush/install over TCP; each installed view
re-points the ring *before* FSR resumes pumping (:class:`_RewiringClient`).

With ``journal_path`` set, every record entry is also journalled to a
JSONL file: held for the rest of its event-loop turn and written once,
at the turn's end or ahead of the turn's first ring, control or serve
socket write (``before_write``), whichever comes first.  A node killed
with SIGKILL still leaves its log for the chaos launcher's invariant
battery, short only of lines that no peer or client could have seen.
"""

from __future__ import annotations

import asyncio
import logging
import random
import signal
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.api import BroadcastListener
from repro.core.fsr.config import FSRConfig
from repro.core.fsr.process import FSRProcess
from repro.errors import NetworkError
from repro.failure.detector import (
    AdaptiveFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    StaticDetector,  # bench/layers.py imports it from this module
    adaptive_floor_s,
)
from repro.live.config import JOURNAL_LISTS, LiveNodeConfig, is_end_marker
from repro.live.scheduler import AsyncioScheduler
from repro.live.transport import RingTransport
from repro.net.channel import MAX_RETRIES
from repro.net.dispatch import SilentPort
from repro.obs.journal import JsonlWriter, SpanJournal, line_template
from repro.obs.profile import (
    CpuAccountant,
    EventLoopLagSampler,
    SamplingProfiler,
)
from repro.obs.reqtrace import RequestLog
from repro.obs.span import SpanLog
from repro.obs.telemetry import Telemetry
from repro.types import Delivery, MessageId, ProcessId, View
from repro.vsc.membership import FlushState, GroupMembership

#: How often the run loop checks its stop rule and its transports.
_POLL_S = 0.05
#: How often a span-journalling node snapshots telemetry to its file.
_TELEMETRY_SNAPSHOT_S = 1.0
#: Journal line template by (line type, row length): a single-ring
#: delivery row stops before ``ring`` and ``slot``.  A ``view`` line,
#: rare and holding a list, goes through ``json.dumps`` instead.
_ROW_LINES = {
    (kind, length): line_template(kind, fields[:length])
    for kind, (_name, fields) in JOURNAL_LISTS.items() if kind != "view"
    for length in range(1, len(fields) + 1)
}
#: :class:`RingTransport` counters a node reports summed over its rings:
#: ``record["stats"][name]`` and the telemetry counter
#: ``transport_<name>`` (the names ``repro.obs.analyze`` reads) are the
#: same numbers.  (Only ring 0 carries the control plane, so the sum of
#: the two control counters is ring 0's.)
_TRANSPORT_COUNTERS = (
    "frames_sent", "frames_received", "bytes_sent", "bytes_received",
    "reconnects", "retargets", "control_frames_sent",
    "control_frames_received", "control_flushes", "tx_pauses", "flushes",
    "batches_sent", "batched_frames", "acks_ridden", "batches_received",
    "rx_chunks", "rx_compacted_bytes", "tx_partial_writes",
)


class ControlPort:
    """One control-plane layer's port, mirroring the sim's ``LayerDemux``.

    Sends go through :meth:`RingTransport.send_control` with this
    port's layer tag.  :class:`_ControlDispatch` is the transport's
    ``on_control`` upcall: it hands each frame to its layer's handler.
    """

    def __init__(
        self, transport: RingTransport, layer: str, dispatch: "_ControlDispatch"
    ) -> None:
        self.node_id = transport.node_id
        self.layer = layer
        self._transport = transport
        self._dispatch = dispatch

    def send(self, dst: ProcessId, message: Any, size_bytes=None) -> None:
        self._transport.send_control(dst, self.layer, message)

    def on_receive(self, handler: Callable[[ProcessId, Any], None]) -> None:
        self._dispatch[self.layer] = handler


class _ControlDispatch(dict):
    """Layer -> handler; called with each inbound control frame."""

    def __call__(self, layer: str, src: ProcessId, inner: Any) -> None:
        handler = self.get(layer)
        if handler is not None:
            handler(src, inner)


class _RewiringClient:
    """VSC client wrapper: re-point the ring hop before FSR resumes.

    ``FSRProcess.on_view`` pumps to the *new* successor at once, and the
    transport only accepts its configured successor, so the transport
    is retargeted first.  The rest delegates to the process.
    """

    def __init__(self, process: Any, rewire: Callable[[View], None]) -> None:
        self._process = process
        self._rewire = rewire

    def __getattr__(self, name: str) -> Any:
        return getattr(self._process, name)

    def on_view(self, view: View, state: Optional[FlushState]) -> None:
        self._rewire(view)
        self._process.on_view(view, state)


def _configure_logging(config: LiveNodeConfig) -> logging.Logger:
    """Per-node logger; ``log_level`` configures the root handler.

    Each node is its own OS process, so ``basicConfig`` here also turns
    on the transport's module-level logger without cross-node bleed.
    """
    log_level = config.spec.log_level
    if log_level:
        level = getattr(logging, log_level.upper(), logging.INFO)
        logging.basicConfig(
            level=level,
            format="%(asctime)s %(levelname)s %(name)s %(message)s",
        )
    return logging.getLogger(f"repro.live.node.{config.node_id}")


async def start_barrier(
    transports: List[RingTransport],
    timeout: float,
    *,
    members: bool,
    stamps: Dict[str, float],
) -> None:
    """The start barrier: evidence, not a timer (DESIGN.md §5c).

    Every ring's successor connection is up and its predecessor said
    Hello; with ``members`` (live membership), ring 0's control link to
    every member is up too (a ring neighbour does not prove a
    non-adjacent member's listener once n >= 4).  The protocol and the
    detector's monitoring start only then, so a slow sibling is waited
    for, not suspected; traffic from peers that pass earlier waits in
    FSR's future-view buffer.  Stamps ``ring_up`` and ``members_up``;
    raises :class:`NetworkError` past ``timeout`` per wait.
    """
    loop = asyncio.get_running_loop()
    for ring_index, ring_transport in enumerate(transports):
        if not await ring_transport.wait_outbound_connected(timeout):
            raise NetworkError(
                ring_transport.failure
                or f"node {ring_transport.node_id}: ring {ring_index} "
                f"successor {ring_transport.successor_id} not connected "
                f"after {timeout:.0f}s"
            )
        if ring_transport.successor_id != ring_transport.node_id and not (
            await ring_transport.wait_inbound_hello(timeout)
        ):
            raise NetworkError(
                f"node {ring_transport.node_id}: ring {ring_index} got no "
                f"inbound connection after {timeout:.0f}s"
            )
    stamps["ring_up"] = loop.time()
    if members and not await transports[0].wait_members_connected(timeout):
        raise NetworkError(
            f"node {transports[0].node_id}: not every member listening "
            f"after {timeout:.0f}s"
        )
    stamps["members_up"] = loop.time()


def _staged(stage: Any, call: Callable[..., None]) -> Callable[..., None]:
    """``call`` charged to a :class:`CpuAccountant` stage."""
    def charged(*args: Any) -> None:
        with stage:
            call(*args)

    return charged


class LiveNode:
    """One cluster member: build (here), :meth:`start`, :meth:`run`,
    :meth:`record` (module docstring; DESIGN.md §5c).

    Every record entry goes through :meth:`_entry`, which files it in
    its list as a row of atoms and journals it (``JOURNAL_LISTS``).
    The journal is flushed ahead of every socket write (each transport's
    and the serve server's ``before_write``), so a turn's lines are in
    the file before any byte of that turn leaves the node.
    """

    def __init__(
        self,
        config: LiveNodeConfig,
        loop: asyncio.AbstractEventLoop,
        stop_requested: asyncio.Event,
    ) -> None:
        self.config = config
        self.spec = spec = config.spec
        self.me = me = config.node_id
        self.stop_requested = stop_requested
        self.sched = AsyncioScheduler(loop)
        self.members = tuple(range(spec.processes))
        position = self.members.index(me)
        self.successor = self.members[(position + 1) % len(self.members)]
        self.journal = JsonlWriter(config.journal_path, loop)
        self.logger = _configure_logging(config)
        self.telemetry = Telemetry()
        # capacity=0: sinks (the span journal, and the request trace's
        # once it opens) still fire, but nothing accumulates in memory.
        self.spans = SpanLog(
            enabled=config.span_path is not None, capacity=0
        )
        self.reqlog = RequestLog(enabled=spec.trace_requests, capacity=0)
        profiled = config.profile_path is not None
        self.cpu = CpuAccountant() if profiled else None
        self.profiler = SamplingProfiler() if profiled else None
        # The lag sampler always runs (10 Hz timer — its absence from the
        # disabled-cost budget is deliberate, it IS the baseline).
        self.lag_sampler = EventLoopLagSampler(self.sched, self.telemetry)
        self.span_journal: Optional[SpanJournal] = None
        self.metrics_server: Any = None

        #: Record entries by journal line type, each a tuple in the
        #: order of its ``JOURNAL_LISTS`` fields: no per-entry dict, and
        #: nothing in a row for the cyclic GC to walk.
        self.rows: Dict[str, List[Tuple[Any, ...]]] = {
            kind: [] for kind in JOURNAL_LISTS
        }
        #: Own workload messages broadcast but not yet delivered here.
        self.outstanding = 0
        #: A ``_refill`` is scheduled for the next loop turn.
        self._refill_due = False
        self.deadline = float("inf")
        #: This sender has broadcast its end marker.
        self.ended = False
        #: Senders whose end marker this node has delivered.
        self.ended_senders: Set[ProcessId] = set()
        #: Start-up stage stamps (``start`` line, record; DESIGN.md §5c).
        self.startup: Dict[str, float] = {}
        self.start_time = 0.0
        self.timed_out = False

        self.shaper = self._build_shaper()
        self.transports = self._build_transports()
        self.transport = self.transports[0]
        self.detector, vsc_port = self._build_detector()
        self.membership = GroupMembership(
            self.sched, vsc_port, self.detector, me=me,
            initial_members=self.members, telemetry=self.telemetry,
            require_quorum=spec.require_quorum,
        )
        self.process = self._build_process()
        self.serve_server: Any = None
        self.serve_rsm: Any = None
        if config.serve_addr is not None:
            self._build_serve()
        if spec.view_changes:
            self.membership.set_client(
                _RewiringClient(self.process, self._rewire)
            )
        self.process.set_listener(BroadcastListener(self._on_app_deliver))
        self.process.on_protocol_deliver(self._on_protocol_deliver)
        if self.journal.enabled:
            for writer in (*self.transports, self.serve_server):
                if writer is not None:
                    writer.before_write = self.journal.flush

    # -- build -----------------------------------------------------------
    def _build_shaper(self) -> Any:
        spec = self.spec
        if not spec.netem_events:
            return None
        # Imported lazily: repro.chaos's package init imports the live
        # runner, so a module-level import here would be circular.
        from repro.chaos.netem import NetShaper
        from repro.chaos.schedules import FaultEvent

        # Cap total emulated delay strictly below the adaptive
        # detector's floor: even if jitter, reordering pressure, and
        # synthetic retransmits stack up on one frame, a heartbeat can
        # never be late enough to look like a crash.
        floor = adaptive_floor_s(
            spec.heartbeat_interval_s, spec.heartbeat_timeout_s
        )
        return NetShaper(
            self.me, len(self.members),
            tuple(FaultEvent.from_dict(e) for e in spec.netem_events),
            spec.netem_scenario, spec.netem_seed,
            delay_cap_s=max(0.0, floor - 2 * spec.heartbeat_interval_s),
            telemetry=self.telemetry,
        )

    def _build_transports(self) -> List[RingTransport]:
        """One transport per inner ring, all to the SAME successor
        (multi-ring rotation keeps the cyclic member order).  Ring 0
        carries the control plane and the egress shaper (per-host
        faults); extra rings are pure data planes."""
        spec, me, successor = self.spec, self.me, self.successor
        batching = spec.transport_batching()
        transports = []
        for ring_index, addrs in enumerate(self.config.ring_addresses):
            seed = (
                f"live:{spec.run_seed}:{me}" if ring_index == 0
                else f"live:{spec.run_seed}:{me}:{ring_index}"
            )
            transports.append(RingTransport(
                node_id=me,
                listen_addr=addrs[me],
                successor_id=successor,
                successor_addr=addrs[successor],
                on_message=lambda src, msg: None,  # the process's on_receive
                peers=dict(addrs) if ring_index == 0 else None,
                # With live membership a dead successor is not terminal:
                # the view change retargets the hop, so keep dialling.
                max_retries=None if spec.view_changes else MAX_RETRIES,
                shaper=self.shaper if ring_index == 0 else None,
                rng=random.Random(seed),
                batching=batching,
                telemetry=self.telemetry,
            ))
        return transports

    def _build_detector(self) -> Tuple[FailureDetector, Any]:
        """The failure detector and membership's port: silent when static."""
        spec = self.spec
        if not spec.view_changes:
            return StaticDetector(), SilentPort(self.me)
        transport = self.transport
        dispatch = _ControlDispatch()
        transport.on_control = dispatch
        # RTT observation doubles heartbeat traffic (probe + echo), so
        # only turn it on when this run is collecting observability data.
        rtt_observer = None
        if self.config.span_path is not None:
            rtt_hist = self.telemetry.histogram("heartbeat_rtt_s")
            rtt_observer = lambda peer, rtt: rtt_hist.observe(rtt)  # noqa: E731
        detector_cls = (
            AdaptiveFailureDetector
            if spec.detector_mode == "adaptive"
            else HeartbeatFailureDetector
        )
        detector = detector_cls(
            self.sched, ControlPort(transport, "fd", dispatch),
            interval_s=spec.heartbeat_interval_s,
            timeout_s=spec.heartbeat_timeout_s,
            rtt_observer=rtt_observer, telemetry=self.telemetry,
        )
        # The timeout is the ceiling for silent failures; a kill the
        # transport sees (hang-up, then port refused) is suspected at
        # once (DESIGN.md §5c).
        transport.on_peer_refused = detector.on_peer_refused
        # Registered ahead of membership's own callback: the journal
        # line carries the instant of suspicion, before the flush.
        detector.on_suspect(lambda peer: self.journal.write(
            {"type": "suspect", "peer": peer, "time": self.sched.now}
        ))
        return detector, ControlPort(transport, "vsc", dispatch)

    def _build_process(self) -> Any:
        """The protocol, talking to its ring transport(s) directly.

        A profiled run charges each transport's upcall (the automaton's
        whole receive path) to the ``fsr`` stage and its ``send`` (codec
        encode + enqueue) to ``encode``; any other run adds no call.
        """
        spec, transports = self.spec, self.transports
        fsr = FSRConfig(t=spec.t)
        process: Any
        if spec.shards > 1:
            from repro.protocols.multiring import (
                MultiRingConfig,
                MultiRingProcess,
                RingLink,
            )

            links = [
                RingLink(
                    ring=ring_index, port=ring_transport,
                    tx_gate=(lambda _t=ring_transport: _t.tx_ready),
                    on_tx_idle=ring_transport.on_tx_idle,
                )
                for ring_index, ring_transport in enumerate(transports)
            ]
            process = MultiRingProcess(
                self.sched, self.membership,
                MultiRingConfig(shards=spec.shards, fsr=fsr), links,
                spans=self.spans,
            )
        else:
            transport = self.transport
            process = FSRProcess(
                self.sched, transport, self.membership, fsr,
                tx_gate=lambda: transport.tx_ready, spans=self.spans,
            )
            transport.on_tx_idle(process.on_tx_ready)
        # A batch frame goes to its ring's automaton as one unit of work.
        automata = process.inner if spec.shards > 1 else [process]
        for ring_transport, automaton in zip(transports, automata):
            ring_transport.on_messages = automaton.on_messages
        if self.cpu is not None:
            fsr_stage = self.cpu.stage("fsr")
            encode_stage = self.cpu.stage("encode")
            for t in transports:
                t.on_message = _staged(fsr_stage, t.on_message)
                t.on_messages = _staged(fsr_stage, t.on_messages)
                t.send = _staged(encode_stage, t.send)  # type: ignore
        return process

    def _build_serve(self) -> None:
        # Imported lazily: repro.serve imports the live scheduler.
        from repro.serve.lease import LeaderLease
        from repro.serve.server import SessionServer
        from repro.serve.session import SessionMachine
        from repro.smr.kvstore import KVStore
        from repro.smr.machine import ReplicatedStateMachine

        machine = SessionMachine(KVStore())
        # Claims the broadcast listener slot; the node's own listener,
        # installed after this, hands every delivery back to it.
        self.serve_rsm = ReplicatedStateMachine(self.process, machine)
        self.serve_rsm.profile = self.cpu
        self.serve_server = SessionServer(
            self.me, self.serve_rsm, machine,
            LeaderLease(self.sched, self.me, self.spec.lease_s), self.sched,
            telemetry=self.telemetry,
            journal=self.journal.append if self.journal.enabled else None,
            reqlog=self.reqlog,
        )

    # -- what the protocol calls ----------------------------------------
    def _rewire(self, view: View) -> None:
        """Re-point every ring at the view's successor (live membership)."""
        ring = view.members
        succ = ring[(ring.index(self.me) + 1) % len(ring)]
        for ring_transport, addrs in zip(
            self.transports, self.config.ring_addresses
        ):
            ring_transport.retarget(succ, addrs[succ])
        self.transport.prune_control_peers(view.members)
        if self.serve_server is not None:
            self.serve_server.on_view(view)
        self._entry("view", (view.view_id, ring, self.sched.now))

    def _entry(self, kind: str, row: Tuple[Any, ...]) -> None:
        """File ``row`` in its record list and journal it."""
        self.rows[kind].append(row)
        journal = self.journal
        if journal.enabled:
            template = _ROW_LINES.get((kind, len(row)))
            if template is not None:
                journal.append(template % row)
            else:
                journal.write(
                    {"type": kind, **dict(zip(JOURNAL_LISTS[kind][1], row))}
                )

    def _may_submit(self) -> bool:
        cap = self.spec.messages_per_sender
        if cap is not None:
            return len(self.rows["broadcast"]) < cap
        return self.sched.now < self.deadline

    def _refill(self) -> None:
        """Keep ``window`` own messages in flight until the deadline,
        then end the workload with the end marker."""
        self._refill_due = False
        spec = self.spec
        while self.outstanding < spec.window and self._may_submit():
            # Stamped before the call: a leader sequences its own
            # message inside ``broadcast``.
            submit_time = self.sched.now
            origin, local_seq = self.process.broadcast(
                bytes(spec.message_bytes)
            )
            self.outstanding += 1
            self._entry(
                "broadcast",
                (origin, local_seq, spec.message_bytes, submit_time),
            )
        if not (self.ended or self._may_submit()):
            self.ended = True
            self.process.broadcast(b"")

    def _on_app_deliver(
        self, origin: ProcessId, message_id: MessageId, payload: Any, size: int
    ) -> None:
        if is_end_marker(size):  # not a workload message
            self.ended_senders.add(origin)
        else:
            msg_origin, local_seq = message_id
            self._entry(
                "app_delivery",
                (origin, msg_origin, local_seq, size, self.sched.now),
            )
            if origin == self.me and self.outstanding > 0:
                self.outstanding -= 1
                # Refill from a fresh loop iteration, not reentrantly
                # from inside the protocol's receive path; one refill
                # tops up the window for every delivery before it.
                if not self._refill_due:
                    self._refill_due = True
                    self.sched.loop.call_soon(self._refill)
        if self.serve_server is not None:
            # Total-order boundary: a traced request this node proposed
            # just got delivered — stamp "ordered" before the apply.
            self.serve_server.note_ordered(message_id)
            self.serve_rsm.deliver(origin, message_id, payload, size)

    def _on_protocol_deliver(self, delivery: Delivery) -> None:
        origin, local_seq = delivery.message_id
        row: Tuple[Any, ...] = (
            origin, local_seq, delivery.sequence, delivery.time,
            delivery.size_bytes,
        )
        if delivery.ring is not None:
            row += (delivery.ring, delivery.slot)
        self._entry("delivery", row)

    # -- start -----------------------------------------------------------
    async def start(self) -> None:
        """Listen, pass the start barrier, then start the protocol.  A
        stop request ends the wait for the barrier: nothing starts."""
        for ring_transport in self.transports:
            await ring_transport.start()
        self.startup["listening"] = self.sched.now
        barrier = asyncio.ensure_future(start_barrier(
            self.transports, self.spec.connect_timeout_s,
            members=self.spec.view_changes, stamps=self.startup,
        ))
        stopping = asyncio.ensure_future(self.stop_requested.wait())
        await asyncio.wait(
            (barrier, stopping), return_when=asyncio.FIRST_COMPLETED
        )
        stopping.cancel()
        started = barrier.done()
        if started:
            barrier.result()  # a barrier that failed fails the node
            self.logger.info(
                "ring up: position=%d successor=%d members=%s",
                self.members.index(self.me), self.successor,
                list(self.members),
            )
        else:
            barrier.cancel()
            self.logger.info(
                "stop requested (SIGTERM) before the start barrier"
            )
        # The span journal opens just before the protocol starts: peers
        # that raced ahead may hand us deliverable traffic from inside
        # ``process.start()``, and those spans must reach the sink.
        config = self.config
        if config.span_path is not None:
            self.span_journal = SpanJournal(
                config.span_path, self.me, start_time=self.sched.now
            )
            self.spans.add_sink(self.span_journal.write_event)
            if self.spec.trace_requests:
                self.reqlog.add_sink(self.span_journal.write_event)
        if started:
            if self.shaper is not None:
                # Armed at protocol start so the schedule's event times
                # share the origin of the workload deadline (and the sim's).
                self.shaper.arm(self.sched)
            self.process.start()
            if self.serve_server is not None:
                # The bootstrap view may have installed without the
                # rewire hook (static mode has none); seed the lease
                # from it either way.
                self.serve_server.on_view(self.membership.view)
                host, serve_port = config.serve_addr
                await self.serve_server.start(host, serve_port)
        self.lag_sampler.start()
        if self.profiler is not None:
            self.profiler.start()
        if config.metrics_addr is not None:
            await self._start_metrics()
        self.start_time = self.sched.now
        self.deadline = self.start_time + self.spec.duration_s
        if started:
            self.journal.write({
                "type": "start", "time": self.start_time, "node_id": self.me,
                "startup": self.startup,
            })
            self.logger.info("protocol started at %.6f", self.start_time)
            if self.me in self.spec.sender_ids:
                self._refill()

    async def _start_metrics(self) -> None:
        # Imported lazily: a node without /metrics never loads it.
        from repro.obs.httpexport import MetricsServer

        self.metrics_server = MetricsServer(
            self.me, self._telemetry_snapshot, self._health
        )
        host, port = self.config.metrics_addr
        await self.metrics_server.start(host, port)
        self.logger.info(
            "metrics plane listening on %s:%s", host, self.metrics_server.port
        )

    def _health(self) -> Dict[str, Any]:
        view, server = self.membership.view, self.serve_server
        leads = bool(view.members) and view.members[0] == self.me
        info: Dict[str, Any] = {
            "node": self.me, "view_id": view.view_id,
            "members": list(view.members),
            "role": "leader" if leads else "follower",
        }
        if server is not None:
            info["lease_holder"] = server.lease.leader
            info["lease_held"] = server.lease.holds()
            info["applied_index"] = server.machine.applied_index
        return info

    def _transport_counters(self) -> Dict[str, int]:
        return {
            name: sum(getattr(t, name) for t in self.transports)
            for name in _TRANSPORT_COUNTERS
        }

    def _telemetry_snapshot(self) -> Dict[str, Any]:
        """Registry snapshot merged with the transports' live counters."""
        transports = self.transports
        if self.cpu is not None:
            self.cpu.publish(self.telemetry)
        snap = self.telemetry.snapshot()
        counters = snap["counters"]
        for name, value in self._transport_counters().items():
            counters[f"transport_{name}"] = value
        counters["transport_tx_stalls"] = sum(t.tx_stalls for t in transports)
        # Bytes per syscall: how many wire bytes each ring write (one
        # per loop turn) amortised.
        flushes = counters["transport_flushes"]
        bytes_per_flush = (
            counters["transport_bytes_sent"] / flushes if flushes else 0.0
        )
        snap["gauges"]["transport_bytes_per_flush"] = {
            "value": bytes_per_flush, "high_water": bytes_per_flush,
        }
        snap["gauges"]["transport_queued_bytes"] = {
            "value": float(sum(t.queued_bytes for t in transports)),
            "high_water": float(sum(t.queued_bytes_hwm for t in transports)),
        }
        if self.shaper is not None:
            snap["netem"] = self.shaper.active_summary()
        return snap

    # -- run -------------------------------------------------------------
    async def run(self) -> None:
        """Run until told to stop.

        A static node stops once it delivered every sender's end marker
        and its ring links wrote what it owes its successor (the last
        stable SeqData/ack, sent in the handler that delivered) or the
        successor, necessarily finished, hung up (PROTOCOL.md App. E).
        With live membership or a serve tier the launcher owns
        termination: a peer may be dead but not yet suspected, and its
        view change must run.  ``max_run_s`` is the backstop; a stop
        before the start barrier ends the loop at once.
        """
        spec, sched, transports = self.spec, self.sched, self.transports
        self_stops = not (spec.view_changes or self.serve_server is not None)
        last_snapshot = sched.now
        while True:
            try:
                await asyncio.wait_for(self.stop_requested.wait(), _POLL_S)
                self.logger.info("stop requested (SIGTERM)")
                return
            except asyncio.TimeoutError:
                pass
            now = sched.now
            journal = self.span_journal
            if (
                journal is not None
                and now - last_snapshot >= _TELEMETRY_SNAPSHOT_S
            ):
                journal.write_telemetry(now, self._telemetry_snapshot())
                last_snapshot = now
            if (
                self_stops and self.ended_senders.issuperset(spec.sender_ids)
                and all(t.written for t in transports)
            ):
                return
            for t in transports:
                if t.failure is not None:
                    self.logger.error("transport failure: %s", t.failure)
                    raise NetworkError(f"node {self.me}: {t.failure}")
            if now - self.start_time >= spec.max_run_s:
                self.timed_out = True
                self.logger.warning(
                    "max_run_s (%.1fs) reached", spec.max_run_s
                )
                return

    # -- record ----------------------------------------------------------
    async def record(self) -> Dict[str, Any]:
        """Shut down, then return the node record."""
        end_time = self.sched.now
        self.lag_sampler.stop()
        if self.profiler is not None:
            self.profiler.stop()
            samples = self.profiler.write_collapsed(self.config.profile_path)
            self.logger.info(
                "profiler wrote %d samples to %s", samples,
                self.config.profile_path,
            )
        if self.metrics_server is not None:
            await self.metrics_server.close()
        if self.serve_server is not None:
            await self.serve_server.close()
        self.process.stop()
        if isinstance(self.detector, HeartbeatFailureDetector):
            self.detector.stop()
        for ring_transport in self.transports:
            await ring_transport.close()
        process, rows = self.process, self.rows
        self.logger.info(
            "stopped after %.3fs: %d broadcast, %d delivered, %d reconnects, "
            "%d tx stalls", end_time - self.start_time,
            len(rows["broadcast"]), len(rows["app_delivery"]),
            self.transport.reconnects, self.transport.tx_stalls,
        )
        final_view = self.membership.view
        record = {
            "schema": "repro.live_node/1",
            "node_id": self.me,
            "start_time": self.start_time,
            "startup": self.startup,
            "end_time": end_time,
            "timed_out": self.timed_out,
            "final_view": {
                "view_id": final_view.view_id,
                "members": list(final_view.members),
            },
            **{
                name: [dict(zip(fields, row)) for row in rows[kind]]
                for kind, (name, fields) in JOURNAL_LISTS.items()
                if kind != "view"
            },
            "stats": {
                **self._transport_counters(),
                "broadcasts": process.stats_broadcasts,
                "deliveries": process.stats_deliveries,
                "acks_piggybacked": process.stats_acks_piggybacked,
                "acks_standalone": process.stats_acks_standalone,
                "journal_writes": self.journal.writes,
            },
            "telemetry": self._telemetry_snapshot(),
        }
        if self.serve_server is not None:
            record["serve"] = self.serve_server.stats()
        if self.cpu is not None:
            record["cpu_stages"] = self.cpu.totals()
        if self.metrics_server is not None:
            record["metrics_port"] = self.metrics_server.port
        if self.span_journal is not None:
            self.span_journal.write_telemetry(end_time, record["telemetry"])
            self.span_journal.close()
        self.journal.write({"type": "end", "time": end_time})
        self.journal.close()
        return record


async def _main(config: LiveNodeConfig) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    # First thing: from here on a SIGTERM is a stop request, never the
    # default kill, so a stop that lands while the node starts still
    # ends it with exit 0 and a record.
    stop_requested = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop_requested.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    node = LiveNode(config, loop, stop_requested)
    await node.start()
    await node.run()
    try:
        loop.remove_signal_handler(signal.SIGTERM)
    except (NotImplementedError, RuntimeError, ValueError):  # pragma: no cover
        pass
    return await node.record()


def run_node(config: LiveNodeConfig) -> Dict[str, Any]:
    """Run one live node to completion; returns its result record."""
    return asyncio.run(_main(config))
