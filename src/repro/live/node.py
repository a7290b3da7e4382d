"""One FSR process hosted in one OS process, over real TCP.

``run_node(config)`` is the whole lifetime of a live cluster member:

1. build the protocol stack — the *same* :class:`FSRProcess` and
   :class:`GroupMembership` the simulator runs, wired to an
   :class:`AsyncioScheduler` and a TCP :class:`RingTransport` instead of
   the simulated NIC;
2. barrier on evidence — ring connectivity (outbound connected and
   predecessor greeted) and, with live membership, every member's
   listener up — then install the bootstrap view and start;
3. if this node is a sender, drive a closed-loop windowed workload
   until the configured deadline (or a fixed message count), then
   broadcast the zero-length end marker;
4. stop on evidence (PROTOCOL.md App. E), then return a JSON-able
   record of every broadcast and delivery, timestamped with the
   system-wide monotonic clock so the runner can merge logs across
   processes.

Membership comes in two modes:

* **static** (default): the detector never suspects anyone, the
  membership layer installs the bootstrap view and stays silent — its
  control port is a :class:`SilentPort` that loudly rejects any use.
* **live view changes** (``view_changes=True``, used by the live chaos
  campaign): a real :class:`HeartbeatFailureDetector` runs on the
  asyncio scheduler over the transport's control plane — its timeout
  the ceiling for silent failures, the transport's crash evidence
  (``on_peer_refused``) the fast path for a killed process — and
  :class:`GroupMembership`'s flush/install protocol executes over TCP.
  On every installed view the ring transport is re-pointed at the new
  successor *before* FSR resumes pumping (:class:`_RewiringClient`).

With ``journal_path`` set, every broadcast and delivery is additionally
appended (and flushed) to a JSONL journal as it happens, so a node
killed with SIGKILL still leaves its log behind — the chaos driver
merges those journals into the invariant battery, which is what makes
integrity/uniformity checks meaningful for crashed senders.
"""

from __future__ import annotations

import asyncio
import logging
import random
import signal
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

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
from repro.live.config import LiveNodeConfig, is_end_marker
from repro.live.scheduler import AsyncioScheduler
from repro.live.transport import RingTransport
from repro.net.channel import MAX_RETRIES
from repro.net.dispatch import SilentPort
from repro.obs.journal import JsonlWriter, SpanJournal
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
#: :class:`RingTransport` counters a node reports summed over its rings:
#: ``record["stats"][name]`` and the telemetry counter
#: ``transport_<name>`` (the names ``repro.obs.analyze`` reads) are the
#: same numbers.  (Only ring 0 carries the control plane, so the sum of
#: the two control counters is ring 0's.)
_TRANSPORT_COUNTERS = (
    "frames_sent",
    "frames_received",
    "bytes_sent",
    "bytes_received",
    "reconnects",
    "retargets",
    "control_frames_sent",
    "control_frames_received",
    "control_flushes",
    "tx_pauses",
    "flushes",
    "batches_sent",
    "batched_frames",
    "acks_ridden",
    "batches_received",
    "rx_chunks",
    "rx_compacted_bytes",
)


class LivePort:
    """Adapts :class:`RingTransport` to the ``Port`` surface FSR uses.

    With a :class:`~repro.obs.profile.CpuAccountant`, inbound dispatch
    (the FSR automaton's whole receive path runs inside the handler)
    is charged to the ``fsr`` stage and outbound sends (codec encode +
    enqueue) to ``encode`` — the seam that splits protocol CPU out of
    event-loop wall time.
    """

    def __init__(self, transport: RingTransport, profile: Any = None) -> None:
        self._transport = transport
        self._handler = None
        self._fsr_stage = profile.stage("fsr") if profile is not None else None
        self._encode_stage = (
            profile.stage("encode") if profile is not None else None
        )
        transport.on_message = self._dispatch

    @property
    def node_id(self) -> ProcessId:
        return self._transport.node_id

    def send(self, dst: ProcessId, message: Any, size_bytes=None) -> None:
        # size_bytes is the simulator's accounting hint; the codec
        # serialises the real payload, so it is not needed here.
        if self._encode_stage is None:
            self._transport.send(dst, message)
        else:
            with self._encode_stage:
                self._transport.send(dst, message)

    def on_receive(self, handler) -> None:
        self._handler = handler

    def _dispatch(self, src: ProcessId, message: Any) -> None:
        if self._handler is None:
            return
        if self._fsr_stage is None:
            self._handler(src, message)
        else:
            with self._fsr_stage:
                self._handler(src, message)


class ControlPort:
    """One control-plane layer's port, mirroring the sim's ``LayerDemux``.

    Sends go through :meth:`RingTransport.send_control` with this
    port's layer tag; receives arrive via :class:`_ControlDispatch`.
    """

    def __init__(self, transport: RingTransport, layer: str) -> None:
        self._transport = transport
        self.layer = layer
        self._handler: Optional[Callable[[ProcessId, Any], None]] = None

    @property
    def node_id(self) -> ProcessId:
        return self._transport.node_id

    def send(self, dst: ProcessId, message: Any, size_bytes=None) -> None:
        self._transport.send_control(dst, self.layer, message)

    def on_receive(self, handler) -> None:
        self._handler = handler

    def dispatch(self, src: ProcessId, message: Any) -> None:
        if self._handler is not None:
            self._handler(src, message)


class _ControlDispatch:
    """Routes inbound control frames to the right layer's port."""

    def __init__(self) -> None:
        self._ports: Dict[str, ControlPort] = {}

    def port(self, transport: RingTransport, layer: str) -> ControlPort:
        port = self._ports[layer] = ControlPort(transport, layer)
        return port

    def __call__(self, layer: str, src: ProcessId, inner: Any) -> None:
        port = self._ports.get(layer)
        if port is not None:
            port.dispatch(src, inner)


class _RewiringClient:
    """VSC client wrapper: re-point the ring hop before FSR resumes.

    ``FSRProcess.on_view`` immediately pumps traffic to the *new* ring
    successor, and the transport only accepts its configured successor
    — so the transport must be retargeted first.  Everything else
    delegates to the wrapped process.
    """

    def __init__(
        self, process: FSRProcess, rewire: Callable[[View], None]
    ) -> None:
        self._process = process
        self._rewire = rewire

    def on_block(self) -> None:
        self._process.on_block()

    def collect_flush_state(self) -> FlushState:
        return self._process.collect_flush_state()

    def merge_states(self, states, receivers):
        return self._process.merge_states(states, receivers)

    def on_view(self, view: View, state: Optional[FlushState]) -> None:
        self._rewire(view)
        self._process.on_view(view, state)

    def on_view_commit(self, view: View) -> None:
        self._process.on_view_commit(view)


def delivery_entry(delivery: Delivery) -> Dict[str, Any]:
    """One protocol delivery as the node record and the journal carry it
    (the journal line adds ``"type": "delivery"`` in front)."""
    entry = {
        "origin": delivery.message_id.origin,
        "local_seq": delivery.message_id.local_seq,
        "sequence": delivery.sequence,
        "time": delivery.time,
        "size_bytes": delivery.size_bytes,
    }
    if delivery.ring is not None:
        entry["ring"] = delivery.ring
        entry["slot"] = delivery.slot
    return entry


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

    Every ring's successor connection is up and its predecessor has
    said Hello; with ``members`` (live membership), ring 0's control
    link to every member is connected too — every member's listener is
    up, which a ring neighbour does not prove about a non-adjacent
    member once n >= 4.  The protocol, and with it the heartbeat
    detector's monitoring, starts only once this holds, so a sibling
    that starts slowly is waited for, not suspected; traffic from peers
    that pass earlier waits in FSR's future-view buffer until our own
    bootstrap view installs.  Stamps ``ring_up`` and ``members_up`` into
    ``stamps``; raises :class:`NetworkError` past ``timeout`` per wait.
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


@dataclass
class _NodeRun:
    """Mutable state of one node's workload while the loop runs."""

    deliveries: List[Dict[str, Any]] = field(default_factory=list)
    app_deliveries: List[Dict[str, Any]] = field(default_factory=list)
    broadcasts: List[Dict[str, Any]] = field(default_factory=list)
    sent: List[MessageId] = field(default_factory=list)
    outstanding: int = 0
    deadline: float = float("inf")
    #: This sender has broadcast its end marker.
    ended: bool = False
    #: Senders whose end marker this node has delivered.
    ended_senders: Set[ProcessId] = field(default_factory=set)


async def _run(config: LiveNodeConfig) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    # First thing: from here on a SIGTERM is a stop request, never the
    # default kill, so a stop that lands while the node starts still
    # ends it with exit 0 and a record.
    stop_requested = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop_requested.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    sched = AsyncioScheduler(loop)
    spec = config.spec
    me = config.node_id
    members = tuple(range(spec.processes))
    position = members.index(me)
    successor = members[(position + 1) % len(members)]
    journal = JsonlWriter(config.journal_path)
    logger = _configure_logging(config)
    telemetry = Telemetry()
    # capacity=0: sinks (the span journal) still fire, but nothing
    # accumulates in memory — a live node's spans live on disk only.
    spans = SpanLog(enabled=config.span_path is not None, capacity=0)
    # Request-trace events stream the same way: capacity=0, journal
    # sink attached once the span journal opens.
    reqlog = RequestLog(enabled=spec.trace_requests, capacity=0)
    cpu = CpuAccountant() if config.profile_path is not None else None

    shaper = None
    if spec.netem_events:
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
        shaper = NetShaper(
            me,
            len(members),
            tuple(FaultEvent.from_dict(e) for e in spec.netem_events),
            spec.netem_scenario,
            spec.netem_seed,
            delay_cap_s=max(0.0, floor - 2 * spec.heartbeat_interval_s),
            telemetry=telemetry,
        )

    # One transport per inner ring.  Multi-ring rotation preserves the
    # cyclic member order, so every node keeps the SAME ring successor
    # in all rings — each extra ring is the same hop on its own port.
    # Ring 0 carries the control plane (and the egress shaper, which
    # models per-host faults); extra rings are pure data planes.
    batching = spec.transport_batching()
    transports: List[RingTransport] = []
    for ring_index, addrs in enumerate(config.ring_addresses):
        seed = (
            f"live:{spec.run_seed}:{me}" if ring_index == 0
            else f"live:{spec.run_seed}:{me}:{ring_index}"
        )
        transports.append(RingTransport(
            node_id=me,
            listen_addr=addrs[me],
            successor_id=successor,
            successor_addr=addrs[successor],
            on_message=lambda src, msg: None,  # replaced by LivePort
            peers=dict(addrs) if ring_index == 0 else None,
            # With live membership a dead successor is not terminal: the
            # view change retargets the hop, so keep dialling until then.
            max_retries=None if spec.view_changes else MAX_RETRIES,
            shaper=shaper if ring_index == 0 else None,
            rng=random.Random(seed),
            batching=batching,
            telemetry=telemetry,
        ))
    transport = transports[0]

    vsc_port: Any
    if spec.view_changes:
        dispatch = _ControlDispatch()
        transport.on_control = dispatch
        fd_port = dispatch.port(transport, "fd")
        vsc_port = dispatch.port(transport, "vsc")
        # RTT observation doubles heartbeat traffic (probe + echo), so
        # only turn it on when this run is collecting observability data.
        rtt_observer = None
        if config.span_path is not None:
            rtt_hist = telemetry.histogram("heartbeat_rtt_s")
            rtt_observer = lambda peer, rtt: rtt_hist.observe(rtt)  # noqa: E731
        detector_cls = (
            AdaptiveFailureDetector
            if spec.detector_mode == "adaptive"
            else HeartbeatFailureDetector
        )
        detector: FailureDetector = detector_cls(
            sched,
            fd_port,
            interval_s=spec.heartbeat_interval_s,
            timeout_s=spec.heartbeat_timeout_s,
            rtt_observer=rtt_observer,
            telemetry=telemetry,
        )
        # The timeout above is the ceiling for silent failures; a kill
        # the transport sees (hang-up, then the port refused) is
        # suspected at once (DESIGN.md §5c).
        transport.on_peer_refused = detector.on_peer_refused
        # Registered ahead of membership's own callback: the journal
        # line carries the instant of suspicion, before the flush.
        detector.on_suspect(lambda peer: journal.write(
            {"type": "suspect", "peer": peer, "time": sched.now}
        ))
    else:
        fd_port = None
        vsc_port = SilentPort(me)
        detector = StaticDetector()
    membership = GroupMembership(
        sched,
        vsc_port,
        detector,
        me=me,
        initial_members=members,
        telemetry=telemetry,
        require_quorum=spec.require_quorum,
    )
    process: Any
    if spec.shards > 1:
        from repro.protocols.multiring import (
            MultiRingConfig,
            MultiRingProcess,
            RingLink,
        )

        links = [
            RingLink(
                ring=ring_index,
                port=LivePort(ring_transport, cpu),
                tx_gate=(lambda _t=ring_transport: _t.tx_ready),
                on_tx_idle=ring_transport.on_tx_idle,
            )
            for ring_index, ring_transport in enumerate(transports)
        ]
        process = MultiRingProcess(
            sched,
            membership,
            MultiRingConfig(shards=spec.shards, fsr=FSRConfig(t=spec.t)),
            links,
            spans=spans,
        )
    else:
        port = LivePort(transport, cpu)
        process = FSRProcess(
            sched,
            port,
            membership,
            FSRConfig(t=spec.t),
            tx_gate=lambda: transport.tx_ready,
            spans=spans,
        )
        transport.on_tx_idle(process.on_tx_ready)

    serve_server: Any = None
    if config.serve_addr is not None:
        # Imported lazily: repro.serve imports the live scheduler, so a
        # module-level import here would be circular for some paths.
        from repro.serve.lease import LeaderLease
        from repro.serve.server import SessionServer
        from repro.serve.session import SessionMachine
        from repro.smr.kvstore import KVStore
        from repro.smr.machine import ReplicatedStateMachine

        serve_machine = SessionMachine(KVStore())
        # Claims the broadcast listener slot; the combined listener
        # installed below hands every delivery back to it.
        serve_rsm = ReplicatedStateMachine(process, serve_machine)
        serve_rsm.profile = cpu
        serve_server = SessionServer(
            me,
            serve_rsm,
            serve_machine,
            LeaderLease(sched, me, spec.lease_s),
            sched,
            telemetry=telemetry,
            journal=journal.write,
            reqlog=reqlog,
        )

    if spec.view_changes:
        def rewire(view: View) -> None:
            ring = view.members
            succ = ring[(ring.index(me) + 1) % len(ring)]
            for ring_transport, addrs in zip(transports, config.ring_addresses):
                ring_transport.retarget(succ, addrs[succ])
            transport.prune_control_peers(view.members)
            if serve_server is not None:
                serve_server.on_view(view)
            journal.write({
                "type": "view",
                "view_id": view.view_id,
                "members": list(ring),
                "time": sched.now,
            })

        membership.set_client(_RewiringClient(process, rewire))

    run = _NodeRun()

    def may_submit() -> bool:
        if spec.messages_per_sender is not None:
            return len(run.sent) < spec.messages_per_sender
        return sched.now < run.deadline

    def refill() -> None:
        """Keep ``window`` own messages in flight until the deadline,
        then end the workload with the end marker."""
        while run.outstanding < spec.window and may_submit():
            payload = bytes(spec.message_bytes)
            message_id = process.broadcast(payload)
            run.outstanding += 1
            run.sent.append(message_id)
            record = {
                "origin": message_id.origin,
                "local_seq": message_id.local_seq,
                "size_bytes": spec.message_bytes,
                "submit_time": sched.now,
            }
            run.broadcasts.append(record)
            if journal.enabled:
                journal.write({"type": "broadcast", **record})
        if not (run.ended or may_submit()):
            run.ended = True
            process.broadcast(b"")

    def on_app_deliver(
        origin: ProcessId, message_id: MessageId, payload: Any, size: int
    ) -> None:
        if is_end_marker(size):  # not a workload message
            run.ended_senders.add(origin)
            return
        record = {
            "origin": origin,
            "msg_origin": message_id.origin,
            "local_seq": message_id.local_seq,
            "size_bytes": size,
            "time": sched.now,
        }
        run.app_deliveries.append(record)
        if journal.enabled:
            journal.write({"type": "app_delivery", **record})
        if origin == me and run.outstanding > 0:
            run.outstanding -= 1
            # Refill from a fresh loop iteration, not reentrantly from
            # inside the protocol's receive path.
            loop.call_soon(refill)

    def on_protocol_deliver(delivery: Delivery) -> None:
        entry = delivery_entry(delivery)
        run.deliveries.append(entry)
        if journal.enabled:
            journal.write({"type": "delivery", **entry})

    if serve_server is not None:
        def app_deliver(
            origin: ProcessId, message_id: MessageId, payload: Any, size: int
        ) -> None:
            on_app_deliver(origin, message_id, payload, size)
            # Total-order boundary: a traced request this node proposed
            # just got delivered — stamp "ordered" before the apply.
            serve_server.note_ordered(message_id)
            serve_rsm.deliver(origin, message_id, payload, size)

        process.set_listener(BroadcastListener(app_deliver))
    else:
        process.set_listener(BroadcastListener(on_app_deliver))
    process.on_protocol_deliver(on_protocol_deliver)

    for ring_transport in transports:
        await ring_transport.start()
    #: Start-up stages on the system-wide monotonic clock, in the
    #: ``start`` journal line and the record (DESIGN.md §5c).
    startup = {"listening": sched.now}
    # A stop request ends the wait for the barrier, and the run with it.
    barrier = asyncio.ensure_future(start_barrier(
        transports, spec.connect_timeout_s,
        members=spec.view_changes, stamps=startup,
    ))
    stopping = asyncio.ensure_future(stop_requested.wait())
    await asyncio.wait(
        (barrier, stopping), return_when=asyncio.FIRST_COMPLETED
    )
    stopping.cancel()
    started = barrier.done()
    if started:
        barrier.result()  # a barrier that failed fails the node
        logger.info(
            "ring up: position=%d successor=%d members=%s", position,
            successor, list(members),
        )
    else:
        barrier.cancel()
        logger.info("stop requested (SIGTERM) before the start barrier")

    def transport_counters() -> Dict[str, int]:
        return {
            name: sum(getattr(t, name) for t in transports)
            for name in _TRANSPORT_COUNTERS
        }

    def telemetry_snapshot() -> Dict[str, Any]:
        """Registry snapshot merged with the transport's live counters."""
        if cpu is not None:
            cpu.publish(telemetry)
        snap = telemetry.snapshot()
        counters = snap["counters"]
        for name, value in transport_counters().items():
            counters[f"transport_{name}"] = value
        counters["transport_tx_stalls"] = sum(
            t.tx_stalls for t in transports
        )
        # Bytes per syscall: how many wire bytes each ring write (one
        # per loop turn) amortised.
        flushes = counters["transport_flushes"]
        bytes_per_flush = (
            counters["transport_bytes_sent"] / flushes if flushes else 0.0
        )
        snap["gauges"]["transport_bytes_per_flush"] = {
            "value": bytes_per_flush,
            "high_water": bytes_per_flush,
        }
        snap["gauges"]["transport_queued_bytes"] = {
            "value": float(sum(t.queued_bytes for t in transports)),
            "high_water": float(
                sum(t.queued_bytes_hwm for t in transports)
            ),
        }
        if shaper is not None:
            snap["netem"] = shaper.active_summary()
        return snap

    # The span journal opens just before the protocol starts: peers that
    # raced ahead may hand us deliverable traffic from inside
    # ``process.start()``, and those spans must reach the sink.
    span_journal: Optional[SpanJournal] = None
    if config.span_path is not None:
        span_journal = SpanJournal(config.span_path, me, start_time=sched.now)
        spans.add_sink(span_journal.write_event)
        if spec.trace_requests:
            reqlog.add_sink(span_journal.write_event)
    if started:
        if shaper is not None:
            # Armed at protocol start so the schedule's event times share
            # the same origin as the workload deadline (and the sim's).
            shaper.arm(sched)
        process.start()
        if serve_server is not None:
            # The bootstrap view may have installed without the rewire
            # hook (static mode has none); seed the lease from it either
            # way.
            serve_server.on_view(membership.view)
            host, serve_port = config.serve_addr
            await serve_server.start(host, serve_port)

    # Observability plane: the lag sampler always runs (10 Hz timer —
    # its absence from the disabled-cost budget is deliberate, it IS
    # the baseline); profiler and /metrics are opt-in.
    lag_sampler = EventLoopLagSampler(sched, telemetry)
    lag_sampler.start()
    profiler: Optional[SamplingProfiler] = None
    if config.profile_path is not None:
        profiler = SamplingProfiler()
        profiler.start()
    metrics_server: Any = None
    if config.metrics_addr is not None:
        # Imported lazily to keep the node's import graph lean when the
        # metrics plane is off.
        from repro.obs.httpexport import MetricsServer

        def health() -> Dict[str, Any]:
            view = membership.view
            info: Dict[str, Any] = {
                "node": me,
                "view_id": view.view_id,
                "members": list(view.members),
                "role": (
                    "leader"
                    if view.members and view.members[0] == me
                    else "follower"
                ),
            }
            if serve_server is not None:
                info["lease_holder"] = serve_server.lease.leader
                info["lease_held"] = serve_server.lease.holds()
                info["applied_index"] = serve_server.machine.applied_index
            return info

        metrics_server = MetricsServer(me, telemetry_snapshot, health)
        metrics_host, metrics_port = config.metrics_addr
        await metrics_server.start(metrics_host, metrics_port)
        logger.info(
            "metrics plane listening on %s:%s", metrics_host,
            metrics_server.port,
        )

    start_time = sched.now
    run.deadline = start_time + spec.duration_s
    if started:
        journal.write(
            {"type": "start", "time": start_time, "node_id": me,
             "startup": startup}
        )
        logger.info("protocol started at %.6f", start_time)
        if me in spec.sender_ids:
            refill()

    # ------------------------------------------------------------------
    # Run until told to stop.  A static node stops once it delivered
    # every sender's end marker and its ring links wrote what it owes
    # its successor (the last stable SeqData/ack, sent in the handler
    # that delivered) or the successor, necessarily finished, hung up
    # (PROTOCOL.md App. E).  With live membership or a serve tier the
    # launcher owns termination: a peer may be dead but not yet
    # suspected, and its view change must run.  ``max_run_s`` is the
    # backstop; a stop before the start barrier ends the loop at once.
    # ------------------------------------------------------------------
    self_stops = not (spec.view_changes or serve_server is not None)
    timed_out = False
    last_snapshot = sched.now
    while True:
        try:
            await asyncio.wait_for(stop_requested.wait(), _POLL_S)
            logger.info("stop requested (SIGTERM)")
            break
        except asyncio.TimeoutError:
            pass
        now = sched.now
        if (
            span_journal is not None
            and now - last_snapshot >= _TELEMETRY_SNAPSHOT_S
        ):
            span_journal.write_telemetry(now, telemetry_snapshot())
            last_snapshot = now
        if (
            self_stops and run.ended_senders.issuperset(spec.sender_ids)
            and all(t.written for t in transports)
        ):
            break
        for ring_transport in transports:
            if ring_transport.failure is not None:
                logger.error(
                    "transport failure: %s", ring_transport.failure
                )
                raise NetworkError(f"node {me}: {ring_transport.failure}")
        if now - start_time >= spec.max_run_s:
            timed_out = True
            logger.warning("max_run_s (%.1fs) reached", spec.max_run_s)
            break
    try:
        loop.remove_signal_handler(signal.SIGTERM)
    except (NotImplementedError, RuntimeError, ValueError):  # pragma: no cover
        pass

    end_time = sched.now
    lag_sampler.stop()
    if profiler is not None:
        profiler.stop()
        samples = profiler.write_collapsed(config.profile_path)
        logger.info(
            "profiler wrote %d samples to %s", samples, config.profile_path
        )
    if metrics_server is not None:
        await metrics_server.close()
    if serve_server is not None:
        await serve_server.close()
    process.stop()
    if isinstance(detector, HeartbeatFailureDetector):
        detector.stop()
    for ring_transport in transports:
        await ring_transport.close()
    logger.info(
        "stopped after %.3fs: %d broadcast, %d delivered, %d reconnects, "
        "%d tx stalls", end_time - start_time, len(run.sent),
        len(run.app_deliveries), transport.reconnects, transport.tx_stalls,
    )

    final_view = membership.view
    record = {
        "schema": "repro.live_node/1",
        "node_id": me,
        "start_time": start_time,
        "startup": startup,
        "end_time": end_time,
        "timed_out": timed_out,
        "final_view": {
            "view_id": final_view.view_id,
            "members": list(final_view.members),
        },
        "deliveries": run.deliveries,
        "app_deliveries": run.app_deliveries,
        "broadcasts": run.broadcasts,
        "sent": [
            {"origin": mid.origin, "local_seq": mid.local_seq}
            for mid in run.sent
        ],
        "stats": {
            **transport_counters(),
            "broadcasts": process.stats_broadcasts,
            "deliveries": process.stats_deliveries,
            "acks_piggybacked": process.stats_acks_piggybacked,
            "acks_standalone": process.stats_acks_standalone,
        },
        "telemetry": telemetry_snapshot(),
    }
    if serve_server is not None:
        record["serve"] = serve_server.stats()
    if cpu is not None:
        record["cpu_stages"] = cpu.totals()
    if metrics_server is not None:
        record["metrics_port"] = metrics_server.port
    if span_journal is not None:
        span_journal.write_telemetry(end_time, record["telemetry"])
        span_journal.close()
    journal.write({"type": "end", "time": end_time})
    journal.close()
    return record


def run_node(config: LiveNodeConfig) -> Dict[str, Any]:
    """Run one live node to completion; returns its result record."""
    return asyncio.run(_run(config))
