"""The live config: one spec per cluster, one placement per node.

A driver builds one flat :class:`LiveClusterSpec`, whose checks all run
when it is constructed.  Every node process gets that same spec plus
what the launcher works out for it alone (:class:`LiveNodeConfig`) and
derives the rest (members, sender ids, batch caps) from the spec.  A
node imports this module, so it stays clear of the launcher's stack.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core.batching import BatchingConfig, batching_config_from_flags
from repro.errors import ConfigurationError
from repro.types import ProcessId

#: A TCP ``(host, port)`` pair.
Address = Tuple[str, int]


def is_end_marker(size_bytes: int) -> bool:
    """Is a delivery of this size the zero-length broadcast a sender
    ends its workload with?  (PROTOCOL.md App. E)"""
    return size_bytes == 0


#: Journal line type -> (the node-record list it is an entry of, the
#: entry's field names).  A node keeps each entry as a row: a tuple of
#: atoms in field order (a single-ring delivery stops before ``ring``
#: and ``slot``).  Its record zips the rows into dicts, and a journal
#: line is that dict with ``"type"`` in front, so the launcher files a
#: crashed node's lines back without re-shaping them.  (A node record
#: carries its ``final_view``, not the ``views`` list.)
JOURNAL_LISTS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "delivery": ("deliveries", (
        "origin", "local_seq", "sequence", "time", "size_bytes", "ring",
        "slot",
    )),
    "app_delivery": ("app_deliveries", (
        "origin", "msg_origin", "local_seq", "size_bytes", "time",
    )),
    "broadcast": ("broadcasts", (
        "origin", "local_seq", "size_bytes", "submit_time",
    )),
    "view": ("views", ("view_id", "members", "time")),
}


@dataclass
class LiveClusterSpec:
    """One live loopback benchmark configuration."""

    processes: int = 4
    senders: int = 1
    t: int = 1
    #: Concurrent FSR rings (``repro.protocols.multiring``); 1 runs the
    #: classic single-ring stack.  Each extra ring gets its own TCP port
    #: per node.
    shards: int = 1
    message_bytes: int = 100_000
    #: Senders stop submitting new messages after this long.
    duration_s: float = 5.0
    #: Closed-loop window: own messages in flight per sender.
    window: int = 4
    host: str = "127.0.0.1"
    #: Hard cap on each node's run past its start barrier.
    max_run_s: float = 60.0
    connect_timeout_s: float = 10.0
    #: Also run the simulator on this configuration for comparison.
    sim_compare: bool = True
    #: Run live membership (heartbeat detector + flush over TCP).
    view_changes: bool = False
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 1.0
    #: Failure-detector flavour for view-change runs: "heartbeat"
    #: (fixed timeout) or "adaptive" (EWMA-adapted, floor/ceiling
    #: clamped — the hostile-network campaigns run this one).
    detector_mode: str = "heartbeat"
    #: Link-level fault events (serialised ``FaultEvent`` dicts) every
    #: node's egress shaper enforces, plus the (scenario, seed) pair the
    #: shapers derive their per-link RNG streams from.  Empty list: no
    #: shaper, zero hot-path overhead.
    netem_events: List[Dict[str, Any]] = field(default_factory=list)
    netem_scenario: str = ""
    netem_seed: int = 0
    #: Seeds each node's transport reconnect jitter; makes live chaos
    #: runs reproducible from ``(scenario, seed)``.
    run_seed: int = 0
    #: Primary-partition guard on every node's membership layer: refuse
    #: views keeping less than a strict majority of the current one.
    require_quorum: bool = False
    #: Fixed-count workload: each sender submits exactly this many
    #: messages (closed loop), ignoring ``duration_s``.  Either way a
    #: sender ends its workload with an end marker (:func:`is_end_marker`).
    messages_per_sender: Optional[int] = None
    #: Collect per-message lifecycle spans + telemetry (``repro.obs``).
    spans: bool = False
    #: Python logging level for the node processes ("INFO", "DEBUG", ...).
    log_level: Optional[str] = None
    #: Transport fast-path batch caps (DESIGN.md §5g); both ``None``
    #: ships one frame per syscall, byte-identical to the unbatched
    #: wire.  Validation matches the sim's ``BatchingConfig``.
    #: ``batch_delay_s`` is the sim's dial: it is validated, but the
    #: live transport flushes when the event-loop turn ends, so no node
    #: reads it (kept because callers still pass it).
    batch_bytes: Optional[int] = None
    batch_messages: Optional[int] = None
    batch_delay_s: Optional[float] = None
    #: Run a client-facing session server on every node
    #: (``repro.serve``); implies ``senders == 0`` — client sessions
    #: are the only broadcast source, and the launcher owns termination.
    serve: bool = False
    #: Leader lease duration for locally served reads (serve runs).
    lease_s: float = 0.8
    #: Request tracing (``repro.obs.reqtrace``): servers journal
    #: request-lifecycle events.  Requires ``spans`` (the events ride
    #: the span journals) and only does anything for serve runs.
    trace_requests: bool = False
    #: Live metrics plane: every node serves ``/metrics`` + ``/healthz``
    #: on its own loopback port (``LiveCluster.metrics_addresses``).
    metrics: bool = False
    #: Fixed base for the metrics ports (node ``i`` listens on
    #: ``base + i``); 0 allocates ephemeral ports like everything else.
    metrics_base_port: int = 0
    #: Directory for per-node flamegraph-collapsed CPU profiles
    #: (``node<id>.collapsed.txt``); ``None`` disables profiling.
    #: Deliberately not the run's tempdir — profiles outlive the run.
    profile_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.processes < 2:
            raise ConfigurationError("a live ring needs at least 2 processes")
        low = 0 if self.serve else 1
        if not low <= self.senders <= self.processes:
            raise ConfigurationError(
                f"senders={self.senders} out of range for "
                f"n={self.processes}"
            )
        if self.serve and self.senders != 0:
            raise ConfigurationError(
                "serve clusters take their load from client sessions; "
                "set senders=0"
            )
        # A zero-length payload is an end marker, not a workload message.
        for name in (
            "shards", "message_bytes", "window", "duration_s", "max_run_s",
            "connect_timeout_s", "lease_s", "messages_per_sender",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.trace_requests and not self.spans:
            raise ConfigurationError(
                "trace_requests rides the span journals; enable spans"
            )
        if self.detector_mode not in ("heartbeat", "adaptive"):
            raise ConfigurationError(
                f"unknown detector_mode {self.detector_mode!r}; "
                "use 'heartbeat' or 'adaptive'"
            )
        # Shared BatchConfig validation with the sim path: nonpositive
        # thresholds raise ConfigurationError here, not at node startup.
        batching_config_from_flags(
            self.batch_bytes, self.batch_messages, self.batch_delay_s
        )

    @property
    def sender_ids(self) -> Tuple[ProcessId, ...]:
        """First ``senders`` ring positions drive the workload, like the
        paper's k-to-n benchmark."""
        return tuple(range(self.senders))

    def transport_batching(self) -> Optional[BatchingConfig]:
        """The batch caps every node's transport runs, or ``None`` when
        batching is off.  Either cap set fills the other from the
        :class:`BatchingConfig` defaults; ``batch_delay_s`` alone turns
        nothing on (the transport has no flush timer)."""
        return batching_config_from_flags(
            self.batch_bytes, self.batch_messages, None
        )


@dataclass
class LiveNodeConfig:
    """What one node process runs: its cluster's spec and its placement.

    JSON round-trippable (:meth:`to_dict` / :meth:`from_dict`): the
    launcher writes one per node and the node process reads it back.
    """

    spec: LiveClusterSpec
    node_id: ProcessId
    #: TCP listen address of every member, one map per ring, ring 0
    #: (which also carries the control plane) first.  Each ring gets its
    #: own port per node so the rings genuinely parallelise the send path.
    ring_addresses: List[Dict[ProcessId, Address]]
    #: Client-facing session server listen address (serve runs only).
    serve_addr: Optional[Address] = None
    #: ``/metrics`` + ``/healthz`` listen address; ``None`` disables.
    metrics_addr: Optional[Address] = None
    #: JSONL event journal, written once per event-loop turn and ahead
    #: of any socket write, so a SIGKILLed node still leaves behind
    #: every line a peer or client could have seen.
    journal_path: Optional[str] = None
    #: JSONL span/telemetry journal (``repro.obs``); ``None`` disables
    #: span emission entirely (the hot path pays one attribute check).
    span_path: Optional[str] = None
    #: Flamegraph-collapsed stacks of the event loop thread, plus
    #: protocol CPU charged to per-stage accounts; ``None`` disables.
    profile_path: Optional[str] = None

    def __post_init__(self) -> None:
        members = range(self.spec.processes)
        if self.node_id not in members:
            raise ConfigurationError(
                f"node {self.node_id} not in members {list(members)}"
            )
        if len(self.ring_addresses) != self.spec.shards or any(
            pid not in ring for ring in self.ring_addresses for pid in members
        ):
            raise ConfigurationError(
                f"need every member's address on each of "
                f"{self.spec.shards} ring(s)"
            )

    def to_dict(self) -> Dict[str, Any]:
        """Every declared field, the spec's nested (JSON-able)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LiveNodeConfig":
        """Inverse of :meth:`to_dict`, also after a JSON round trip.

        Absent keys take the declared defaults; a key that names no
        field, of the placement or of the spec, is a
        :class:`ConfigurationError` (a launcher and a node that
        disagree about the config must not run).
        """
        values = _known_fields(cls, data)
        values["spec"] = LiveClusterSpec(
            **_known_fields(LiveClusterSpec, values.get("spec", {}))
        )
        # JSON stringifies int keys and turns tuples into lists; the
        # address maps and the two optional addresses carry either.
        values["ring_addresses"] = [
            {int(pid): (host, port) for pid, (host, port) in addrs.items()}
            for addrs in values.get("ring_addresses", [])
        ]
        for name in ("serve_addr", "metrics_addr"):
            if values.get(name) is not None:
                values[name] = tuple(values[name])
        return cls(**values)


def _known_fields(cls: type, data: Dict[str, Any]) -> Dict[str, Any]:
    """``data`` as keyword arguments of ``cls``; unknown keys raise."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(
            f"unknown {cls.__name__} key(s): {', '.join(unknown)}"
        )
    return dict(data)
