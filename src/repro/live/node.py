"""One FSR process hosted in one OS process, over real TCP.

``run_node(config)`` is the whole lifetime of a live cluster member:

1. build the protocol stack — the *same* :class:`FSRProcess` and
   :class:`GroupMembership` the simulator runs, wired to an
   :class:`AsyncioScheduler` and a TCP :class:`RingTransport` instead of
   the simulated NIC;
2. barrier on ring connectivity (outbound connected and predecessor
   greeted), settle, then install the bootstrap view and start;
3. if this node is a sender, drive a closed-loop windowed workload
   until the configured deadline (or a fixed message count);
4. run to quiescence (no ring or membership traffic for ``quiet_s``),
   then return a JSON-able record of every broadcast and delivery,
   timestamped with the system-wide monotonic clock so the runner can
   merge logs across processes.

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
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.api import BroadcastListener
from repro.core.batching import BatchingConfig, batching_config_from_flags
from repro.core.fsr.config import FSRConfig
from repro.core.fsr.process import FSRProcess
from repro.errors import ConfigurationError, NetworkError
from repro.failure.detector import (
    AdaptiveFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    StaticDetector,  # bench/layers.py imports it from this module
    adaptive_floor_s,
)
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

#: How often the quiescence monitor samples traffic counters.
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
    "flushes",
    "batches_sent",
    "batched_frames",
    "acks_ridden",
    "batches_received",
    "rx_chunks",
    "rx_compacted_bytes",
)


@dataclass
class LiveNodeConfig:
    """Everything one live node needs to know; JSON round-trippable."""

    node_id: ProcessId
    #: Initial membership in ring order (position 0 is the leader).
    members: List[ProcessId]
    #: TCP listen address of every member.
    addresses: Dict[ProcessId, Tuple[str, int]]
    #: FSR backup count.
    t: int = 1
    #: Concurrent FSR rings (``repro.protocols.multiring``); 1 runs the
    #: classic single-ring stack untouched.
    shards: int = 1
    #: Per-ring listen addresses, one map per ring, when ``shards > 1``.
    #: Ring 0 conventionally reuses ``addresses``; each ring gets its
    #: own TCP port per node so the S rings genuinely parallelise the
    #: send path (the live analogue of the sim's per-ring alias NICs).
    ring_addresses: List[Dict[ProcessId, Tuple[str, int]]] = field(
        default_factory=list
    )
    #: Members driving the workload.
    senders: List[ProcessId] = field(default_factory=list)
    message_bytes: int = 100_000
    #: Senders stop submitting new messages after this long.
    duration_s: float = 5.0
    #: Closed-loop window: own messages in flight per sender.
    window: int = 4
    #: Barrier settle time after ring connectivity, before senders start.
    settle_s: float = 0.5
    #: Ring silence needed to declare the run quiescent.
    quiet_s: float = 0.5
    #: Hard cap on the whole run past the start barrier.
    max_run_s: float = 60.0
    connect_timeout_s: float = 10.0
    #: Run real membership (heartbeat detector + flush over TCP).
    view_changes: bool = False
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 1.0
    #: Failure-detector flavour when ``view_changes``: "heartbeat"
    #: (fixed timeout) or "adaptive" (EWMA-adapted, floor/ceiling
    #: clamped — the hostile-network campaigns run this one).
    detector_mode: str = "heartbeat"
    #: Link-level fault events for this node's egress shaper, as
    #: serialised :class:`repro.chaos.schedules.FaultEvent` dicts.
    #: Empty list: no shaper, zero hot-path overhead.
    netem_events: List[Dict[str, Any]] = field(default_factory=list)
    #: Scenario name + seed the shaper derives its per-link RNGs from.
    netem_scenario: str = ""
    netem_seed: int = 0
    #: Run-level seed for transport reconnect jitter; makes live chaos
    #: runs reproducible from ``(scenario, seed)``.
    run_seed: int = 0
    #: Primary-partition guard (see ``GroupMembership``): refuse views
    #: keeping less than a strict majority of the current one.  The
    #: chaos driver turns this on for partitionable runs.
    require_quorum: bool = False
    #: Fixed-count sender mode: each sender submits exactly this many
    #: messages (closed loop), ignoring ``duration_s`` — used by the
    #: sim/live conformance test, where the workloads must be identical.
    messages_per_sender: Optional[int] = None
    #: Client-facing session server listen address (``repro.serve``);
    #: ``None`` disables serving entirely.
    serve_addr: Optional[Tuple[str, int]] = None
    #: Leader lease duration for locally served reads (serve mode).
    lease_s: float = 0.8
    #: JSONL event journal, appended and flushed as events happen so a
    #: SIGKILLed node still leaves its log behind.
    journal_path: Optional[str] = None
    #: JSONL span/telemetry journal (``repro.obs``); ``None`` disables
    #: span emission entirely (the hot path pays one attribute check).
    span_path: Optional[str] = None
    #: Request tracing (``repro.obs.reqtrace``): stamp server-side
    #: request-lifecycle events into the span journal.  Needs
    #: ``span_path`` (the journal is the only sink) and serve mode.
    trace_requests: bool = False
    #: Live metrics plane (``repro.obs.httpexport``): HTTP listen
    #: address for ``/metrics`` + ``/healthz``; ``None`` disables.
    metrics_addr: Optional[Tuple[str, int]] = None
    #: CPU profiling: write flamegraph-collapsed stacks of the event
    #: loop thread here and charge protocol CPU (encode / decode / FSR
    #: automaton / apply) to per-stage accounts.  ``None`` disables —
    #: the hot path pays one attribute check per delivery.
    profile_path: Optional[str] = None
    #: Python logging level name for this node's process ("INFO", ...);
    #: ``None`` leaves logging unconfigured (silent).
    log_level: Optional[str] = None
    #: Transport fast path (DESIGN.md §5g): batch caps for frame
    #: coalescing on the ring hop.  Both caps ``None`` disables batching
    #: — the transport stays byte-identical to the unbatched wire.
    #: Either one set fills the other from :class:`BatchingConfig`
    #: defaults.  (The simulator's third dial, the flush delay, has no
    #: live counterpart: the transport has no flush timer.)
    batch_bytes: Optional[int] = None
    batch_messages: Optional[int] = None

    def batch_config(self) -> Optional[BatchingConfig]:
        """Transport batch caps, or ``None`` when batching is off."""
        return batching_config_from_flags(
            self.batch_bytes, self.batch_messages, None
        )

    def __post_init__(self) -> None:
        # Surfaces nonpositive batch thresholds as ConfigurationError
        # at config time, matching the sim path's validation.
        self.batch_config()
        if self.node_id not in self.members:
            raise ConfigurationError(
                f"node {self.node_id} not in members {self.members}"
            )
        for pid in self.members:
            if pid not in self.addresses:
                raise ConfigurationError(f"no address for member {pid}")
        for pid in self.senders:
            if pid not in self.members:
                raise ConfigurationError(f"sender {pid} not in members")
        if self.serve_addr is not None and self.senders:
            raise ConfigurationError(
                "serve mode replaces the sender workload; a serving "
                "cluster must run with no senders (client sessions are "
                "the only broadcast source)"
            )
        if self.lease_s <= 0:
            raise ConfigurationError("lease_s must be positive")
        if self.trace_requests and self.span_path is None:
            raise ConfigurationError(
                "trace_requests needs span_path: request-trace events "
                "are journalled, never held in node memory"
            )
        if self.detector_mode not in ("heartbeat", "adaptive"):
            raise ConfigurationError(
                f"unknown detector_mode {self.detector_mode!r}; "
                "use 'heartbeat' or 'adaptive'"
            )
        if self.shards < 1:
            raise ConfigurationError("shards must be at least 1")
        if self.shards > 1:
            if len(self.ring_addresses) != self.shards:
                raise ConfigurationError(
                    f"shards={self.shards} needs {self.shards} ring address "
                    f"maps, got {len(self.ring_addresses)}"
                )
            for ring, addrs in enumerate(self.ring_addresses):
                for pid in self.members:
                    if pid not in addrs:
                        raise ConfigurationError(
                            f"ring {ring}: no address for member {pid}"
                        )

    def ring_addrs(self) -> List[Dict[ProcessId, Tuple[str, int]]]:
        """Per-ring address maps; single-ring configs use ``addresses``."""
        if self.ring_addresses:
            return self.ring_addresses
        return [self.addresses]

    def to_dict(self) -> Dict[str, Any]:
        """Every declared field, by name (JSON-able)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LiveNodeConfig":
        """Inverse of :meth:`to_dict`, also after a JSON round trip.

        Absent keys take the field defaults declared above; a key that
        names no field is a :class:`ConfigurationError` (a launcher and
        a node that disagree about the config must not run).
        """
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigurationError(
                f"unknown LiveNodeConfig key(s): {', '.join(unknown)}"
            )
        values = dict(data)
        # JSON stringifies int keys and turns tuples into lists; the
        # address maps and the two optional (host, port) pairs are the
        # only fields that carry either.
        if "addresses" in values:
            values["addresses"] = _address_map(values["addresses"])
        if "ring_addresses" in values:
            values["ring_addresses"] = [
                _address_map(addrs) for addrs in values["ring_addresses"]
            ]
        for name in ("serve_addr", "metrics_addr"):
            if values.get(name) is not None:
                values[name] = tuple(values[name])
        return cls(**values)


def _address_map(raw: Dict[Any, Any]) -> Dict[ProcessId, Tuple[str, int]]:
    return {int(pid): (host, port) for pid, (host, port) in raw.items()}


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
    ``last_activity`` timestamps the most recent send *or* receive on
    this layer — the quiescence monitor uses the membership port's to
    avoid tearing a node down mid-flush.
    """

    def __init__(
        self, transport: RingTransport, layer: str, sched: AsyncioScheduler
    ) -> None:
        self._transport = transport
        self.layer = layer
        self._sched = sched
        self._handler: Optional[Callable[[ProcessId, Any], None]] = None
        self.last_activity: float = 0.0

    @property
    def node_id(self) -> ProcessId:
        return self._transport.node_id

    def send(self, dst: ProcessId, message: Any, size_bytes=None) -> None:
        self.last_activity = self._sched.now
        self._transport.send_control(dst, self.layer, message)

    def on_receive(self, handler) -> None:
        self._handler = handler

    def dispatch(self, src: ProcessId, message: Any) -> None:
        self.last_activity = self._sched.now
        if self._handler is not None:
            self._handler(src, message)


class _ControlDispatch:
    """Routes inbound control frames to the right layer's port."""

    def __init__(self) -> None:
        self._ports: Dict[str, ControlPort] = {}

    def port(
        self, transport: RingTransport, layer: str, sched: AsyncioScheduler
    ) -> ControlPort:
        port = ControlPort(transport, layer, sched)
        self._ports[layer] = port
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
        #: Last installed view, exposed in the node's result record.
        self.current_view: Optional[View] = None

    def on_block(self) -> None:
        self._process.on_block()

    def collect_flush_state(self) -> FlushState:
        return self._process.collect_flush_state()

    def merge_states(self, states, receivers):
        return self._process.merge_states(states, receivers)

    def on_view(self, view: View, state: Optional[FlushState]) -> None:
        self.current_view = view
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
    if config.log_level:
        level = getattr(logging, config.log_level.upper(), logging.INFO)
        logging.basicConfig(
            level=level,
            format="%(asctime)s %(levelname)s %(name)s %(message)s",
        )
    return logging.getLogger(f"repro.live.node.{config.node_id}")


@dataclass
class _NodeRun:
    """Mutable state of one node's workload while the loop runs."""

    deliveries: List[Dict[str, Any]] = field(default_factory=list)
    app_deliveries: List[Dict[str, Any]] = field(default_factory=list)
    broadcasts: List[Dict[str, Any]] = field(default_factory=list)
    sent: List[MessageId] = field(default_factory=list)
    outstanding: int = 0


async def _run(config: LiveNodeConfig) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    sched = AsyncioScheduler(loop)
    me = config.node_id
    members = tuple(config.members)
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
    reqlog = RequestLog(enabled=config.trace_requests, capacity=0)
    cpu = CpuAccountant() if config.profile_path is not None else None

    shaper = None
    if config.netem_events:
        # Imported lazily: repro.chaos's package init imports the live
        # runner, so a module-level import here would be circular.
        from repro.chaos.netem import NetShaper
        from repro.chaos.schedules import FaultEvent

        # Cap total emulated delay strictly below the adaptive
        # detector's floor: even if jitter, reordering pressure, and
        # synthetic retransmits stack up on one frame, a heartbeat can
        # never be late enough to look like a crash.
        floor = adaptive_floor_s(
            config.heartbeat_interval_s, config.heartbeat_timeout_s
        )
        shaper = NetShaper(
            me,
            len(members),
            tuple(FaultEvent.from_dict(e) for e in config.netem_events),
            config.netem_scenario,
            config.netem_seed,
            delay_cap_s=max(0.0, floor - 2 * config.heartbeat_interval_s),
            telemetry=telemetry,
        )

    # One transport per inner ring.  Multi-ring rotation preserves the
    # cyclic member order, so every node keeps the SAME ring successor
    # in all rings — each extra ring is the same hop on its own port.
    # Ring 0 carries the control plane (and the egress shaper, which
    # models per-host faults); extra rings are pure data planes.
    ring_addrs = config.ring_addrs()
    batching = config.batch_config()
    transports: List[RingTransport] = []
    for ring_index in range(config.shards):
        addrs = ring_addrs[ring_index]
        seed = (
            f"live:{config.run_seed}:{me}" if ring_index == 0
            else f"live:{config.run_seed}:{me}:{ring_index}"
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
            max_retries=None if config.view_changes else MAX_RETRIES,
            shaper=shaper if ring_index == 0 else None,
            rng=random.Random(seed),
            batching=batching,
            telemetry=telemetry,
        ))
    transport = transports[0]

    vsc_port: Any
    if config.view_changes:
        dispatch = _ControlDispatch()
        transport.on_control = dispatch
        fd_port = dispatch.port(transport, "fd", sched)
        vsc_port = dispatch.port(transport, "vsc", sched)
        # RTT observation doubles heartbeat traffic (probe + echo), so
        # only turn it on when this run is collecting observability data.
        rtt_observer = None
        if config.span_path is not None:
            rtt_hist = telemetry.histogram("heartbeat_rtt_s")
            rtt_observer = lambda peer, rtt: rtt_hist.observe(rtt)  # noqa: E731
        detector_cls = (
            AdaptiveFailureDetector
            if config.detector_mode == "adaptive"
            else HeartbeatFailureDetector
        )
        detector: FailureDetector = detector_cls(
            sched,
            fd_port,
            interval_s=config.heartbeat_interval_s,
            timeout_s=config.heartbeat_timeout_s,
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
        require_quorum=config.require_quorum,
    )
    process: Any
    if config.shards > 1:
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
            MultiRingConfig(shards=config.shards, fsr=FSRConfig(t=config.t)),
            links,
            spans=spans,
        )
    else:
        port = LivePort(transport, cpu)
        process = FSRProcess(
            sched,
            port,
            membership,
            FSRConfig(t=config.t),
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
            LeaderLease(sched, me, config.lease_s),
            sched,
            telemetry=telemetry,
            journal=journal.write,
            reqlog=reqlog,
        )

    client: Any = process
    if config.view_changes:
        def rewire(view: View) -> None:
            ring = view.members
            succ = ring[(ring.index(me) + 1) % len(ring)]
            for ring_index, ring_transport in enumerate(transports):
                ring_transport.retarget(succ, ring_addrs[ring_index][succ])
            transport.prune_control_peers(view.members)
            if serve_server is not None:
                serve_server.on_view(view)
            journal.write({
                "type": "view",
                "view_id": view.view_id,
                "members": list(ring),
                "time": sched.now,
            })

        client = _RewiringClient(process, rewire)
        membership.set_client(client)

    def current_view() -> View:
        if isinstance(client, _RewiringClient) and client.current_view is not None:
            return client.current_view
        return membership.view

    run = _NodeRun()
    deadline = [float("inf")]

    def may_submit() -> bool:
        if config.messages_per_sender is not None:
            return len(run.sent) < config.messages_per_sender
        return sched.now < deadline[0]

    def refill() -> None:
        """Keep ``window`` own messages in flight until the deadline."""
        while run.outstanding < config.window and may_submit():
            payload = bytes(config.message_bytes)
            message_id = process.broadcast(payload)
            run.outstanding += 1
            run.sent.append(message_id)
            record = {
                "origin": message_id.origin,
                "local_seq": message_id.local_seq,
                "size_bytes": config.message_bytes,
                "submit_time": sched.now,
            }
            run.broadcasts.append(record)
            if journal.enabled:
                journal.write({"type": "broadcast", **record})

    def on_app_deliver(
        origin: ProcessId, message_id: MessageId, payload: Any, size: int
    ) -> None:
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

    # ------------------------------------------------------------------
    # Barrier: ring connectivity, then a settle delay, then start.  The
    # protocol (and with it the heartbeat detector's monitoring) only
    # starts once the ring is up, so slow sibling startup cannot be
    # mistaken for a crash.  Traffic from peers that start slightly
    # earlier is buffered by FSR's future-view buffer until our own
    # bootstrap view installs.
    # ------------------------------------------------------------------
    timeout = config.connect_timeout_s
    for ring_index, ring_transport in enumerate(transports):
        if not await ring_transport.wait_outbound_connected(timeout):
            raise NetworkError(
                ring_transport.failure
                or f"node {me}: ring {ring_index} successor {successor} not "
                f"connected after {timeout:.0f}s"
            )
        if len(members) > 1 and not await ring_transport.wait_inbound_hello(
            timeout
        ):
            raise NetworkError(
                f"node {me}: ring {ring_index} got no inbound connection "
                f"after {timeout:.0f}s"
            )
    await asyncio.sleep(config.settle_s)
    logger.info(
        "ring up: position=%d successor=%d members=%s", position, successor,
        list(members),
    )

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
        # Bytes per syscall: the fast path's whole point — how many
        # wire bytes each write+drain cycle amortised.
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
        if config.trace_requests:
            reqlog.add_sink(span_journal.write_event)
    if shaper is not None:
        # Armed at protocol start so the schedule's event times share
        # the same origin as the workload deadline (and the sim's).
        shaper.arm(sched)
    process.start()
    if serve_server is not None:
        # The bootstrap view may have installed without the rewire hook
        # (static mode has none); seed the lease from it either way.
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
            view = current_view()
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
    journal.write({"type": "start", "time": start_time, "node_id": me})
    logger.info("protocol started at %.6f", start_time)
    if config.messages_per_sender is not None:
        # Fixed-count workload: no time deadline; quiescence decides.
        deadline[0] = start_time
    else:
        deadline[0] = start_time + config.duration_s
    if me in config.senders:
        refill()

    # ------------------------------------------------------------------
    # Run until told to stop.  Static mode self-detects quiescence:
    # deadline passed and the ring silent for ``quiet_s``.  With live
    # membership a node must NOT self-exit on local silence — a silent
    # peer may be dead but not yet suspected, and exiting would skip
    # the view change whose recovery finishes propagating stability to
    # laggards.  The launcher owns termination there: it watches all
    # survivor journals and SIGTERMs everyone simultaneously (which
    # also avoids a suspect-and-reflush cascade as nodes wind down).
    # ``max_run_s`` stays as the local backstop in both modes.
    # ------------------------------------------------------------------
    stop_requested = asyncio.Event()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop_requested.set)
    except (NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    timed_out = False
    last_counters = (-1, -1)
    last_change = sched.now
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
        counters = (
            sum(t.frames_received for t in transports),
            sum(t.frames_sent for t in transports),
        )
        queued = sum(t.queued_bytes for t in transports)
        if counters != last_counters or queued > 0:
            last_counters = counters
            last_change = now
        for ring_transport in transports:
            if ring_transport.failure is not None:
                logger.error(
                    "transport failure: %s", ring_transport.failure
                )
                raise NetworkError(f"node {me}: {ring_transport.failure}")
        if now - start_time >= config.max_run_s:
            timed_out = True
            logger.warning("max_run_s (%.1fs) reached", config.max_run_s)
            break
        if config.view_changes or serve_server is not None:
            continue  # the launcher signals the stop
        if now < deadline[0]:
            continue
        if now - last_change >= config.quiet_s:
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

    final_view = current_view()
    record = {
        "schema": "repro.live_node/1",
        "node_id": me,
        "start_time": start_time,
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
