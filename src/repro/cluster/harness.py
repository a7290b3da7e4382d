"""Cluster assembly and experiment execution.

``build_cluster(config)`` stands up the full simulated stack; the
returned :class:`Cluster` exposes just enough surface for workload
drivers and tests: broadcast, run, crash, results.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.results import AppDelivery, ExperimentResult
from repro.core.api import BroadcastListener, DeliveryLog, TotalOrderBroadcast
from repro.errors import ConfigurationError, SimulationError
from repro.failure.detector import (
    AdaptiveFailureDetector,
    FailureDetector,
    HeartbeatFailureDetector,
    OracleFailureDetector,
)
from repro.failure.injector import CrashInjector
from repro.net.channel import ChannelStack
from repro.net.dispatch import LayerDemux
from repro.net.network import Network, NetworkEndpoint
from repro.obs.span import SpanLog
from repro.protocols.registry import ProtocolContext, build_protocol
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceLog
from repro.types import BroadcastRecord, MessageId, ProcessId, SimTime
from repro.vsc.membership import GroupMembership

#: Id offset between a node's per-ring synthetic NICs (multi-ring only).
#: Ring ``r`` of node ``p`` attaches to the network as ``p + r * STRIDE``;
#: real node ids stay far below the stride.
RING_STRIDE = 4096


class _RingPort:
    """Port adapter mapping one inner ring's traffic onto an alias NIC.

    Each extra ring of a multi-ring node gets its own simulated NIC (its
    own TX/RX/CPU queues — the multi-queue-NIC + one-protocol-core-per-
    ring resource model), attached under an alias id.  This adapter
    translates peer ids on the way through so the protocol automaton
    only ever sees real node ids.
    """

    def __init__(self, stack: ChannelStack, real_id: ProcessId, delta: int) -> None:
        self._stack = stack
        self._real_id = real_id
        self._delta = delta

    @property
    def node_id(self) -> ProcessId:
        return self._real_id

    def send(self, dst: ProcessId, message: Any,
             size_bytes: Optional[int] = None) -> None:
        self._stack.send(dst + self._delta, message, size_bytes)

    def on_receive(self, handler: Callable[[ProcessId, Any], None]) -> None:
        delta = self._delta
        self._stack.on_receive(lambda src, message: handler(src - delta, message))


class ClusterNode:
    """Everything living at one simulated machine."""

    def __init__(
        self,
        node_id: ProcessId,
        endpoint: NetworkEndpoint,
        stack: ChannelStack,
        demux: LayerDemux,
        detector: FailureDetector,
        membership: GroupMembership,
        protocol: TotalOrderBroadcast,
        ring_alias_ids: Optional[List[ProcessId]] = None,
    ) -> None:
        self.node_id = node_id
        self.endpoint = endpoint
        self.stack = stack
        self.demux = demux
        self.detector = detector
        self.membership = membership
        self.protocol = protocol
        #: Synthetic per-ring NIC ids (multi-ring; crashed with the node).
        self.ring_alias_ids = ring_alias_ids or []
        self.delivery_log = DeliveryLog(process=node_id)
        self.app_deliveries: List[AppDelivery] = []


class Cluster:
    """A running simulated cluster (see :func:`build_cluster`)."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.sim = Simulator()
        self.trace = TraceLog(enabled=config.trace)
        #: One shared span log: node ids disambiguate emitters, exactly
        #: like the per-node journals a live run merges.
        self.spans = SpanLog(enabled=config.spans)
        self.rngs = RngRegistry(seed=config.seed)
        self.network = Network(
            self.sim,
            config.network,
            trace=self.trace,
            loss_rng=self.rngs.stream("net.loss"),
            jitter_rng=self.rngs.stream("net.jitter"),
        )
        self.injector = CrashInjector(self.sim, self.network, trace=self.trace)
        self.members: Tuple[ProcessId, ...] = tuple(range(config.n))
        self.nodes: Dict[ProcessId, ClusterNode] = {}
        self._broadcasts: List[BroadcastRecord] = []
        self._broadcast_origin: Dict[MessageId, ProcessId] = {}
        self._crashed: Dict[ProcessId, SimTime] = {}
        self._started = False

        for node_id in self.members:
            self.nodes[node_id] = self._build_node(node_id)
        self.injector.on_crash(self._on_crash)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_node(self, node_id: ProcessId) -> ClusterNode:
        config = self.config
        endpoint = self.network.attach(node_id)
        stack = ChannelStack(self.sim, endpoint, config.network, trace=self.trace)
        demux = LayerDemux(stack)

        fd_port = demux.port("fd")
        if config.detector == "oracle":
            detector: FailureDetector = OracleFailureDetector(
                self.sim, owner=node_id, detection_delay_s=config.detection_delay_s
            )
            self.injector.register_detector(detector)
        elif config.detector == "adaptive":
            detector = AdaptiveFailureDetector(
                self.sim,
                fd_port,
                interval_s=config.heartbeat_interval_s,
                timeout_s=config.heartbeat_timeout_s,
                trace=self.trace,
            )
        else:
            detector = HeartbeatFailureDetector(
                self.sim,
                fd_port,
                interval_s=config.heartbeat_interval_s,
                timeout_s=config.heartbeat_timeout_s,
                trace=self.trace,
            )

        membership = GroupMembership(
            self.sim,
            demux.port("vsc"),
            detector,
            me=node_id,
            initial_members=self.members,
            trace=self.trace,
            require_quorum=config.require_quorum,
        )

        proto_port = demux.port("proto")
        ring_links, ring_alias_ids = self._build_ring_links(
            node_id, endpoint, proto_port
        )
        context = ProtocolContext(
            sim=self.sim,
            node_id=node_id,
            port=proto_port,
            membership=membership,
            members=self.members,
            config=config.protocol_config,
            trace=self.trace,
            tx_gate=lambda: endpoint.tx_idle,
            on_tx_idle=endpoint.on_tx_idle,
            cpu_submit=endpoint.cpu_submit,
            spans=self.spans,
            ring_links=ring_links,
        )
        protocol = build_protocol(config.protocol, context)

        node = ClusterNode(
            node_id, endpoint, stack, demux, detector, membership, protocol,
            ring_alias_ids=ring_alias_ids,
        )
        protocol.set_listener(
            BroadcastListener(
                lambda origin, mid, payload, size, _n=node: _n.app_deliveries.append(
                    AppDelivery(
                        process=_n.node_id,
                        origin=origin,
                        message_id=mid,
                        size_bytes=size,
                        time=self.sim.now,
                    )
                )
            )
        )
        deliver_hook = getattr(protocol, "on_protocol_deliver", None)
        if deliver_hook is not None:
            deliver_hook(node.delivery_log.deliveries.append)
        return node

    def _build_ring_links(
        self,
        node_id: ProcessId,
        endpoint: NetworkEndpoint,
        proto_port: Any,
    ) -> Tuple[Optional[List[Any]], List[ProcessId]]:
        """Provision per-ring NICs for the multi-ring protocol.

        Ring 0 rides the node's main endpoint (sharing it with the
        membership and failure-detector layers, like single-ring FSR);
        each further ring gets its own synthetic network attachment —
        its own TX/RX/CPU queues — under an alias id, wrapped in its own
        :class:`ChannelStack` so ARQ covers the alias links under loss.
        """
        config = self.config
        if config.protocol != "multiring":
            return None, []
        from repro.protocols.multiring.config import MultiRingConfig
        from repro.protocols.multiring.core import RingLink

        mr_config = config.protocol_config
        if not isinstance(mr_config, MultiRingConfig):
            mr_config = MultiRingConfig()
        if mr_config.shards <= 1:
            return None, []
        links: List[Any] = [
            RingLink(
                ring=0,
                port=proto_port,
                tx_gate=lambda: endpoint.tx_idle,
                on_tx_idle=endpoint.on_tx_idle,
                cpu_submit=endpoint.cpu_submit,
            )
        ]
        alias_ids: List[ProcessId] = []
        for ring in range(1, mr_config.shards):
            delta = ring * RING_STRIDE
            alias_id = node_id + delta
            alias_endpoint = self.network.attach(alias_id)
            alias_stack = ChannelStack(
                self.sim, alias_endpoint, config.network, trace=self.trace
            )
            links.append(
                RingLink(
                    ring=ring,
                    port=_RingPort(alias_stack, node_id, delta),
                    tx_gate=(
                        lambda _endpoint=alias_endpoint: _endpoint.tx_idle
                    ),
                    on_tx_idle=alias_endpoint.on_tx_idle,
                    cpu_submit=alias_endpoint.cpu_submit,
                )
            )
            alias_ids.append(alias_id)
        return links, alias_ids

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every node's protocol stack."""
        if self._started:
            return
        self._started = True
        for node in self.nodes.values():
            node.protocol.start()

    def broadcast(
        self,
        node_id: ProcessId,
        payload: Any = None,
        size_bytes: Optional[int] = None,
    ) -> MessageId:
        """Submit one TO-broadcast at ``node_id`` (records it for checks)."""
        if not self._started:
            raise SimulationError("call Cluster.start() before broadcasting")
        node = self.nodes[node_id]
        message_id = node.protocol.broadcast(payload, size_bytes)
        size = size_bytes if size_bytes is not None else len(payload or b"")
        self._broadcasts.append(
            BroadcastRecord(
                message_id=message_id, size_bytes=size, submit_time=self.sim.now
            )
        )
        self._broadcast_origin[message_id] = node_id
        return message_id

    def schedule_crash(self, node_id: ProcessId, time: SimTime):
        """Crash ``node_id`` at simulated ``time``; returns the event."""
        return self.injector.schedule_crash(node_id, time)

    def _on_crash(self, node_id: ProcessId) -> None:
        self._crashed[node_id] = self.sim.now
        node = self.nodes[node_id]
        node.protocol.stop()
        # A crashed machine takes its per-ring NICs with it.
        for alias_id in node.ring_alias_ids:
            self.network.crash(alias_id)
        stop = getattr(node.detector, "stop", None)
        if stop is not None:
            stop()

    def run(self, until: Optional[SimTime] = None) -> SimTime:
        """Run the simulation (to quiescence, or up to ``until``)."""
        return self.sim.run(until=until)

    def run_until(
        self,
        predicate: Callable[[], bool],
        step_s: float = 50e-3,
        max_time_s: float = 600.0,
    ) -> SimTime:
        """Advance in ``step_s`` chunks until ``predicate()`` holds.

        Needed for protocols with perpetual timers (tokens, heartbeats)
        whose event heaps never drain.  Raises if ``max_time_s`` of
        simulated time passes without the predicate holding — a liveness
        failure worth surfacing loudly.
        """
        while not predicate():
            if self.sim.now >= max_time_s:
                raise SimulationError(
                    f"predicate still false after {self.sim.now:.3f}s simulated"
                )
            self.sim.run(until=self.sim.now + step_s)
        return self.sim.now

    def all_correct_delivered(self, expected: int) -> bool:
        """True when every non-crashed node has ``expected`` app deliveries."""
        return all(
            len(node.app_deliveries) >= expected
            for node_id, node in self.nodes.items()
            if node_id not in self._crashed
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self) -> ExperimentResult:
        """Freeze the run into an :class:`ExperimentResult`."""
        return ExperimentResult(
            config=self.config,
            duration_s=self.sim.now,
            delivery_logs={
                node_id: node.delivery_log for node_id, node in self.nodes.items()
            },
            app_deliveries={
                node_id: list(node.app_deliveries)
                for node_id, node in self.nodes.items()
            },
            broadcasts=list(self._broadcasts),
            broadcast_origin=dict(self._broadcast_origin),
            crashed=dict(self._crashed),
            nic_stats={
                node_id: self.network.stats_of(node_id) for node_id in self.members
            },
            trace=self.trace,
            spans=self.spans,
        )


def build_cluster(config: ClusterConfig) -> Cluster:
    """Build (but do not start) a cluster from ``config``."""
    return Cluster(config)
