"""Multi-process localhost cluster launcher and live benchmark driver.

``run_live_cluster(spec)`` is what ``python -m repro live`` executes:

1. allocate one loopback TCP port per node and write a
   :class:`~repro.live.node.LiveNodeConfig` JSON per node;
2. spawn one OS process per FSR process (``python -m repro live-node``),
   so marshalling and protocol CPU genuinely run in parallel, like the
   paper's one-host-per-process cluster;
3. collect each node's JSON result, rebase all timestamps to the
   earliest node start (the monotonic clock is system-wide, so
   cross-process timestamps are directly comparable), and merge them
   into the same :class:`~repro.cluster.results.ExperimentResult`
   container simulated runs produce;
4. verify the merged logs with the standard correctness checkers, and
   compute throughput/latency metrics with the standard collector;
5. optionally run the *simulator* on the same configuration, so
   ``BENCH_live.json`` reports measured and predicted numbers side by
   side — the cross-validation the ROADMAP asks for.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.checker.order import check_all
from repro.cluster.config import ClusterConfig
from repro.cluster.results import AppDelivery, ExperimentResult
from repro.core.api import DeliveryLog
from repro.core.batching import batching_config_from_flags
from repro.core.fsr.config import FSRConfig
from repro.errors import ConfigurationError, NetworkError
from repro.live.node import LiveNodeConfig
from repro.metrics.collector import ExperimentMetrics, collect_metrics
from repro.obs.analyze import (
    StageBreakdown,
    crosscheck_latency,
    ring_breakdowns,
    stage_breakdown,
)
from repro.obs.journal import JsonlReader, Timeline, merge_span_journals
from repro.types import BroadcastRecord, Delivery, MessageId, ProcessId
from repro.workloads.patterns import KToNPattern
from repro.workloads.driver import WorkloadOutcome

#: Extra wall-clock slack past a node's own hard cap before we kill it.
_KILL_SLACK_S = 30.0
#: How often the start-barrier poller looks at the journals.
_START_POLL_S = 0.02
#: How long terminated survivors get to write their records.
_SHUTDOWN_GRACE_S = 15.0
#: Simulated comparison runs cap messages per sender to stay quick.
_SIM_MESSAGES_CAP = 30


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
    duration_s: float = 5.0
    window: int = 4
    host: str = "127.0.0.1"
    settle_s: float = 0.5
    quiet_s: float = 0.5
    max_run_s: float = 60.0
    connect_timeout_s: float = 10.0
    #: Also run the simulator on this configuration for comparison.
    sim_compare: bool = True
    #: Run live membership (heartbeat detector + flush over TCP).
    view_changes: bool = False
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 1.0
    #: Failure-detector flavour for view-change runs ("heartbeat" or
    #: "adaptive"); hostile-network campaigns run "adaptive".
    detector_mode: str = "heartbeat"
    #: Link-level fault events (serialised ``FaultEvent`` dicts) every
    #: node's egress shaper enforces, plus the (scenario, seed) pair the
    #: shapers derive their per-link RNG streams from.
    netem_events: List[Dict[str, Any]] = field(default_factory=list)
    netem_scenario: str = ""
    netem_seed: int = 0
    #: Seeds each node's transport reconnect jitter.
    run_seed: int = 0
    #: Primary-partition guard on every node's membership layer.
    require_quorum: bool = False
    #: Fixed-count workload (overrides ``duration_s`` as the stop rule).
    messages_per_sender: Optional[int] = None
    #: Collect per-message lifecycle spans + telemetry (``repro.obs``).
    spans: bool = False
    #: Python logging level for the node processes ("INFO", "DEBUG", ...).
    log_level: Optional[str] = None
    #: Transport fast-path batch caps (DESIGN.md §5g); both ``None``
    #: ships one frame per syscall, byte-identical to the unbatched
    #: wire.  Validation matches the sim's ``BatchingConfig``.
    #: ``batch_delay_s`` is the sim's dial: it is validated, but the
    #: live transport flushes when the event-loop turn ends, so it
    #: stops at the launcher (kept because callers still pass it).
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
        if self.duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        if self.trace_requests and not self.spans:
            raise ConfigurationError(
                "trace_requests rides the span journals; enable spans"
            )
        if self.shards < 1:
            raise ConfigurationError("shards must be at least 1")
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


@dataclass
class LiveRunResult:
    """Everything one live run produced."""

    result: ExperimentResult
    outcome: WorkloadOutcome
    metrics: ExperimentMetrics
    node_records: Dict[ProcessId, Dict[str, Any]]
    order_ok: bool
    order_error: Optional[str]
    timed_out: bool
    #: Merged cross-node span timeline (``spec.spans`` runs only).
    timeline: Optional[Timeline] = None
    #: Latency stage breakdown over the timeline, cross-checked against
    #: the collector's end-to-end latency.
    breakdown: Optional[StageBreakdown] = None
    #: Per-inner-ring breakdowns (multiring runs with spans only).
    per_ring_breakdown: Optional[Dict[int, StageBreakdown]] = None


def _free_ports(host: str, count: int) -> List[int]:
    """Allocate ``count`` distinct free TCP ports by binding to 0."""
    sockets: List[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind((host, 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _node_env() -> Dict[str, str]:
    """Subprocess environment that can ``import repro``."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing
        else package_root + os.pathsep + existing
    )
    return env


#: Spec fields the launcher consumes itself (cluster shape, port and
#: path allocation, what to do with the records).  Every *other* spec
#: field is forwarded to every node under the same name, so a field
#: added to the spec alone fails the first launch (and a test) instead
#: of silently stopping here.
LAUNCHER_ONLY_FIELDS = frozenset({
    "processes", "host", "sim_compare", "spans", "serve", "metrics",
    "metrics_base_port", "profile_dir", "batch_delay_s",
})


def forwarded_fields(spec: LiveClusterSpec) -> Dict[str, Any]:
    """The node-config keyword arguments the spec supplies by name.

    ``senders`` is the one shared name that means something else (a
    count here, the sender ids there), so it is translated.
    """
    shared = {
        f.name: getattr(spec, f.name)
        for f in fields(spec)
        if f.name not in LAUNCHER_ONLY_FIELDS
    }
    shared["senders"] = list(spec.sender_ids)
    return shared


class LiveCluster:
    """One cluster session: launch, start barrier, inject, stop, records.

    Spawns one ``python -m repro live-node`` subprocess per member and
    guarantees — via :meth:`shutdown`, which :meth:`launch` runs in a
    ``finally`` block (direct constructors must do the same) — that
    every child is killed *and waited on*, so neither a node that
    failed to bind its port nor a crashed launcher leaves orphaned
    siblings or zombies behind.  A driver supplies only what is its
    own: the load, the faults (:meth:`kill`), its drain predicate and
    its battery over the records :meth:`stop` returns.
    """

    def __init__(
        self,
        spec: LiveClusterSpec,
        workdir: str,
        *,
        journals: bool = False,
    ) -> None:
        self.spec = spec
        self.members = list(range(spec.processes))
        #: ``CLOCK_MONOTONIC`` stamp of every SIGKILL :meth:`kill`
        #: delivered — the nodes' own time axis.
        self.killed: Dict[ProcessId, float] = {}
        ephemeral_metrics = spec.metrics and not spec.metrics_base_port
        blocks = spec.shards + int(spec.serve) + int(ephemeral_metrics)
        ports = iter(_free_ports(spec.host, spec.processes * blocks))

        def block() -> Dict[ProcessId, Tuple[str, int]]:
            return {pid: (spec.host, next(ports)) for pid in self.members}

        # One port per (node, ring); ring 0 is the canonical address map
        # (and the control plane), extra rings are pure data planes.
        self.ring_addresses = [block() for _ in range(spec.shards)]
        #: Client-facing session server address per node (serve runs).
        self.serve_addresses = block() if spec.serve else {}
        #: Live ``/metrics`` + ``/healthz`` address per node.
        self.metrics_addresses: Dict[ProcessId, Tuple[str, int]] = {}
        if ephemeral_metrics:
            self.metrics_addresses = block()
        elif spec.metrics:
            self.metrics_addresses = {
                pid: (spec.host, spec.metrics_base_port + pid)
                for pid in self.members
            }
        self.addresses = self.ring_addresses[0]
        self.out_paths: Dict[ProcessId, str] = {}
        self.journal_paths: Dict[ProcessId, str] = {}
        self.span_paths: Dict[ProcessId, str] = {}
        self.procs: Dict[ProcessId, subprocess.Popen] = {}
        if spec.profile_dir is not None:
            os.makedirs(spec.profile_dir, exist_ok=True)
        env = _node_env()
        shared = forwarded_fields(spec)
        try:
            for pid in self.members:
                if journals:
                    self.journal_paths[pid] = os.path.join(
                        workdir, f"node{pid}.journal.jsonl"
                    )
                if spec.spans:
                    self.span_paths[pid] = os.path.join(
                        workdir, f"node{pid}.spans.jsonl"
                    )
                config = LiveNodeConfig(
                    node_id=pid,
                    members=self.members,
                    addresses=self.addresses,
                    ring_addresses=(
                        self.ring_addresses if spec.shards > 1 else []
                    ),
                    serve_addr=self.serve_addresses.get(pid),
                    journal_path=self.journal_paths.get(pid),
                    span_path=self.span_paths.get(pid),
                    metrics_addr=self.metrics_addresses.get(pid),
                    profile_path=(
                        os.path.join(
                            spec.profile_dir, f"node{pid}.collapsed.txt"
                        )
                        if spec.profile_dir is not None
                        else None
                    ),
                    **shared,
                )
                config_path = os.path.join(workdir, f"node{pid}.json")
                self.out_paths[pid] = os.path.join(
                    workdir, f"node{pid}.out.json"
                )
                with open(config_path, "w") as fh:
                    json.dump(config.to_dict(), fh)
                self.procs[pid] = subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "live-node",
                        "--config",
                        config_path,
                        "--out",
                        self.out_paths[pid],
                    ],
                    env=env,
                    stdout=subprocess.PIPE,
                    # A node asked to log writes to the launcher's
                    # stderr as it runs; otherwise stderr is only the
                    # tail quoted when the node fails.
                    stderr=None if spec.log_level else subprocess.PIPE,
                )
        except BaseException:
            # Spawning sibling k+1 failed: reap siblings 0..k before
            # propagating, or they outlive the launcher.
            self.shutdown()
            raise

    @classmethod
    @contextlib.contextmanager
    def launch(
        cls, spec: LiveClusterSpec, *, journals: bool = False
    ) -> Iterator["LiveCluster"]:
        """Spawn the cluster in a tempdir of its own; reap it on exit.

        Configs, records, journals and span journals live in that
        tempdir: read what you need (:meth:`stop`, :meth:`timeline`)
        before leaving the ``with`` block.
        """
        with tempfile.TemporaryDirectory(prefix="repro-live-") as workdir:
            cluster = cls(spec, workdir, journals=journals)
            try:
                yield cluster
            finally:
                cluster.shutdown()

    def await_started(self, timeout_s: float) -> Dict[ProcessId, float]:
        """Block until every node passed its start barrier; returns each
        node's start stamp.  Needs ``journals=True``.

        The ``start`` journal line doubles as the ready signal: it is
        flushed once the node is past the connectivity barrier, has
        started the protocol and (serve runs) listens for clients, so
        fault times measured from it line up with the traffic window.
        A node that exits first fails the wait at once, with its stderr.
        """
        deadline = time.monotonic() + timeout_s
        readers = {
            pid: JsonlReader(path) for pid, path in self.journal_paths.items()
        }
        starts: Dict[ProcessId, float] = {}
        while True:
            for pid, reader in readers.items():
                if pid in starts:
                    continue
                start = _start_line(reader.poll())
                if start is not None:
                    starts[pid] = start["time"]
                elif self.procs[pid].poll() is not None:
                    self.raise_on_failures()
                    raise NetworkError(
                        f"node {pid} exited 0 before its start barrier"
                    )
            if len(starts) == len(self.members):
                return starts
            if time.monotonic() > deadline:
                missing = sorted(set(self.members) - set(starts))
                raise NetworkError(
                    f"nodes {missing} never reached the start barrier "
                    f"within {timeout_s:.0f}s"
                )
            time.sleep(_START_POLL_S)

    def kill(self, pid: ProcessId) -> bool:
        """SIGKILL one node; True if it was still running.

        The stamp in :attr:`killed` is taken once the process is
        reaped: nothing the node did happened after it.
        """
        proc = self.procs[pid]
        if proc.poll() is not None:
            return False
        proc.kill()
        proc.wait()
        self.killed[pid] = time.monotonic()
        return True

    def terminate(self, skip: Optional[set] = None) -> None:
        """SIGTERM every still-running non-skipped node (graceful stop)."""
        for pid, proc in self.procs.items():
            if pid in (skip or set()) or proc.poll() is not None:
                continue
            proc.terminate()

    def wait(
        self,
        deadline_s: float,
        *,
        skip: Optional[set] = None,
        fail_fast: bool = True,
    ) -> None:
        """Wait for every non-skipped node to exit.

        With ``fail_fast`` (the default), a node exiting nonzero stops
        the wait immediately — there is no point holding the full
        deadline when a node already died at startup; the caller's
        ``finally: shutdown()`` reaps the survivors.
        """
        start = time.monotonic()
        pending = {
            pid: proc
            for pid, proc in self.procs.items()
            if pid not in (skip or set())
        }
        while pending and time.monotonic() - start < deadline_s:
            for pid in list(pending):
                if pending[pid].poll() is not None:
                    del pending[pid]
                    if fail_fast and self.procs[pid].returncode != 0:
                        return
            if pending:
                time.sleep(0.05)
        if pending:
            for proc in pending.values():
                proc.kill()
                proc.wait()
            raise NetworkError(
                f"live nodes {sorted(pending)} still running after "
                f"{deadline_s:.0f}s; killed"
            )

    def raise_on_failures(self, *, skip: Optional[set] = None) -> None:
        """Collect stderr of nonzero exits and raise if any."""
        failures = []
        for pid, proc in self.procs.items():
            if pid in (skip or set()) or proc.poll() is None:
                continue
            _, stderr = proc.communicate()
            if proc.returncode != 0:
                tail = (stderr or b"").decode(
                    errors="replace"
                ).strip().splitlines()
                failures.append(
                    f"node {pid} exited {proc.returncode}: "
                    + ("; ".join(tail[-3:]) if tail else "<no stderr>")
                )
        if failures:
            raise NetworkError("live run failed: " + " | ".join(failures))

    def collect(self, *, skip: Optional[set] = None) -> Dict[ProcessId, Dict[str, Any]]:
        """Load the result record of every non-skipped node."""
        records: Dict[ProcessId, Dict[str, Any]] = {}
        for pid, path in self.out_paths.items():
            if pid in (skip or set()):
                continue
            with open(path) as fh:
                records[pid] = json.load(fh)
        return records

    def stop(
        self, grace_s: float = _SHUTDOWN_GRACE_S
    ) -> Dict[ProcessId, Dict[str, Any]]:
        """SIGTERM the survivors, wait, and return every node's record.

        Killed nodes answer from beyond the grave: their record is the
        partial one their crash journal holds (when the cluster was
        launched with journals and the node got past its barrier),
        with ``end_time`` = the kill stamp.
        """
        skip = set(self.killed)
        # A node that already died is reported alone: SIGTERM ahead of
        # the start barrier kills its siblings with no record either.
        self.raise_on_failures(skip=skip)
        self.terminate(skip=skip)
        self.wait(grace_s, skip=skip, fail_fast=False)
        self.raise_on_failures(skip=skip)
        records = self.collect(skip=skip)
        for pid, kill_time in self.killed.items():
            if pid not in self.journal_paths:
                continue
            partial = load_journal_record(pid, self.journal_paths[pid])
            if partial is not None:
                partial["end_time"] = kill_time
                records[pid] = partial
        return records

    def timeline(
        self, records: Dict[ProcessId, Dict[str, Any]]
    ) -> Optional[Timeline]:
        """Merge the span journals (``spec.spans`` runs; else ``None``),
        rebased to :func:`run_origin` — the *same* origin
        :func:`merge_node_records` uses, so span timestamps line up
        exactly with the merged :class:`ExperimentResult` and the stage
        breakdown can be cross-checked against the metrics collector."""
        if not self.span_paths:
            return None
        return merge_span_journals(self.span_paths, t0=run_origin(records))

    def shutdown(self) -> None:
        """Kill and *reap* every child still alive. Idempotent."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass


def run_origin(records: Dict[ProcessId, Dict[str, Any]]) -> float:
    """The rebase origin of a run: the earliest node start.

    The monotonic clock is system-wide, so one subtraction puts every
    node's (and the launcher's, and a client's) stamps on one axis.
    """
    return min(record["start_time"] for record in records.values())


#: Journal line type -> the node-record list it is an entry of.
_JOURNAL_LISTS = {
    "broadcast": "broadcasts",
    "delivery": "deliveries",
    "app_delivery": "app_deliveries",
    "view": "views",
}


def _start_line(events: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The journal's ``start`` line (the start barrier), if among ``events``."""
    return next((e for e in events if e.get("type") == "start"), None)


def load_journal_record(
    pid: ProcessId, path: str
) -> Optional[Dict[str, Any]]:
    """Rebuild a partial node record from a crash-surviving journal.

    Returns ``None`` when the node never reached its start barrier (no
    ``start`` line).  Journal lines are the record's entries with a
    ``type`` in front (``repro.live.node``), so they are filed, not
    re-shaped.
    """
    events = JsonlReader(path).poll()
    start = _start_line(events)
    if start is None:
        return None
    record: Dict[str, Any] = {
        "schema": "repro.live_node_journal/1",
        "node_id": pid,
        "start_time": start["time"],
        "end_time": max(e["time"] for e in events if "time" in e),
        "timed_out": False,
        "sent": [],
        **{key: [] for key in _JOURNAL_LISTS.values()},
    }
    for event in events:
        kind = event.pop("type", None)
        if kind in _JOURNAL_LISTS:
            record[_JOURNAL_LISTS[kind]].append(event)
        if kind == "broadcast":
            record["sent"].append(
                {"origin": event["origin"], "local_seq": event["local_seq"]}
            )
    return record


def merge_node_records(
    spec: LiveClusterSpec,
    records: Dict[ProcessId, Dict[str, Any]],
    crashed: Optional[Dict[ProcessId, float]] = None,
) -> Tuple[ExperimentResult, WorkloadOutcome]:
    """Merge per-node records into the standard result containers.

    All timestamps are rebased to the earliest node start so merged
    logs read like a simulated run starting at ~0.  ``crashed`` maps
    killed nodes to their (monotonic) kill times; their records are
    journal-derived partials, and the crash times flow into
    :class:`ExperimentResult` so the checkers treat them like
    simulator crashes (no liveness obligations, logs still checked
    for order/integrity prefix consistency).
    """
    t0 = run_origin(records)

    delivery_logs: Dict[ProcessId, DeliveryLog] = {}
    app_deliveries: Dict[ProcessId, List[AppDelivery]] = {}
    broadcasts: List[BroadcastRecord] = []
    broadcast_origin: Dict[MessageId, ProcessId] = {}
    sent: Dict[ProcessId, List[MessageId]] = {}

    for pid, record in sorted(records.items()):
        log = DeliveryLog(process=pid)
        for entry in record["deliveries"]:
            log.deliveries.append(
                Delivery(
                    process=pid,
                    message_id=MessageId(entry["origin"], entry["local_seq"]),
                    sequence=entry["sequence"],
                    time=entry["time"] - t0,
                    size_bytes=entry["size_bytes"],
                    ring=entry.get("ring"),
                    slot=entry.get("slot"),
                )
            )
        delivery_logs[pid] = log
        app_deliveries[pid] = [
            AppDelivery(
                process=pid,
                origin=entry["origin"],
                message_id=MessageId(entry["msg_origin"], entry["local_seq"]),
                size_bytes=entry["size_bytes"],
                time=entry["time"] - t0,
            )
            for entry in record["app_deliveries"]
        ]
        if record["sent"]:
            sent[pid] = [
                MessageId(entry["origin"], entry["local_seq"])
                for entry in record["sent"]
            ]
        for entry in record["broadcasts"]:
            message_id = MessageId(entry["origin"], entry["local_seq"])
            broadcasts.append(
                BroadcastRecord(
                    message_id=message_id,
                    size_bytes=entry["size_bytes"],
                    submit_time=entry["submit_time"] - t0,
                )
            )
            broadcast_origin[message_id] = pid

    broadcasts.sort(key=lambda record: record.submit_time)
    duration = max(record["end_time"] for record in records.values()) - t0
    result = ExperimentResult(
        config=spec,
        duration_s=duration,
        delivery_logs=delivery_logs,
        app_deliveries=app_deliveries,
        broadcasts=broadcasts,
        broadcast_origin=broadcast_origin,
        crashed={
            pid: kill_time - t0 for pid, kill_time in (crashed or {}).items()
        },
        nic_stats={},
    )
    if not sent:
        raise NetworkError("no live node submitted any broadcast")
    start_time = min(
        records[pid]["start_time"] - t0 for pid in sent
    )
    pattern = KToNPattern(
        senders=tuple(sorted(sent)),
        messages_per_sender=max(len(ids) for ids in sent.values()),
        message_bytes=spec.message_bytes,
    )
    outcome = WorkloadOutcome(
        result=result, start_time=start_time, sent=sent, pattern=pattern
    )
    return result, outcome


def check_live_order(result: ExperimentResult) -> Optional[str]:
    """Run the standard correctness oracle; returns the failure text."""
    from repro.errors import CheckFailure

    try:
        check_all(result)
    except CheckFailure as exc:
        return str(exc)
    return None


def simulate_comparison(
    spec: LiveClusterSpec, messages_per_sender: int
) -> ExperimentMetrics:
    """Run the simulator on the live configuration and collect metrics."""
    from repro.cluster.harness import build_cluster
    from repro.workloads.driver import run_workload

    if spec.shards > 1:
        from repro.protocols.multiring.config import MultiRingConfig

        config = ClusterConfig(
            n=spec.processes,
            protocol="multiring",
            protocol_config=MultiRingConfig(
                shards=spec.shards, fsr=FSRConfig(t=spec.t)
            ),
        )
    else:
        config = ClusterConfig(
            n=spec.processes,
            protocol="fsr",
            protocol_config=FSRConfig(t=spec.t),
        )
    cluster = build_cluster(config)
    pattern = KToNPattern(
        senders=spec.sender_ids,
        messages_per_sender=messages_per_sender,
        message_bytes=spec.message_bytes,
    )
    outcome = run_workload(cluster, pattern)
    return collect_metrics(outcome)


def run_live_cluster(spec: LiveClusterSpec) -> LiveRunResult:
    """Launch, merge, verify, and measure one live loopback run."""
    with LiveCluster.launch(spec) as cluster:
        # Static nodes stop themselves at quiescence; a node dying at
        # startup ends the wait at once and stop() reports it.
        cluster.wait(spec.connect_timeout_s + spec.max_run_s + _KILL_SLACK_S)
        records = cluster.stop()
        timeline = cluster.timeline(records)
    result, outcome = merge_node_records(spec, records)
    order_error = check_live_order(result)
    metrics = collect_metrics(outcome)
    breakdown = None
    per_ring = None
    if timeline is not None and timeline.events:
        if timeline.rings():
            # Multi-ring run: spans end at *inner ring* delivery while
            # the collector measures to the multiplexer's app delivery
            # (which may wait on sibling rings), so the end-to-end
            # cross-check does not apply; noop filler messages are
            # traced but never submitted, so match non-strictly.
            breakdown = stage_breakdown(
                timeline,
                broadcasts=result.broadcasts,
                strict_submissions=False,
            )
            per_ring = ring_breakdowns(timeline, broadcasts=result.broadcasts)
        else:
            # Stage breakdown and collector latency share one submission
            # timestamp source (``result.broadcasts``); the cross-check
            # asserts the per-stage sums agree with the end-to-end number.
            breakdown = stage_breakdown(timeline, broadcasts=result.broadcasts)
            crosscheck_latency(breakdown, metrics.mean_latency_s)
    return LiveRunResult(
        result=result,
        outcome=outcome,
        metrics=metrics,
        node_records=records,
        order_ok=order_error is None,
        order_error=order_error,
        timed_out=any(r.get("timed_out") for r in records.values()),
        timeline=timeline,
        breakdown=breakdown,
        per_ring_breakdown=per_ring,
    )


def bench_payload(
    spec: LiveClusterSpec,
    live: LiveRunResult,
    sim_metrics: Optional[ExperimentMetrics],
    sim_messages_per_sender: Optional[int],
) -> Dict[str, Any]:
    """Assemble the ``BENCH_live.json`` document."""
    from repro.analysis import ThroughputPrediction
    from repro.metrics.export import metrics_to_dict
    from repro.net.params import NetworkParams

    prediction = ThroughputPrediction.for_paper_setup(
        NetworkParams.fast_ethernet(),
        n=spec.processes,
        message_bytes=spec.message_bytes,
    )
    payload: Dict[str, Any] = {
        "schema": "repro.bench_live/1",
        "config": asdict(spec),
        "order_check": {
            "ok": live.order_ok,
            "error": live.order_error,
        },
        "timed_out": live.timed_out,
        "live": {
            "metrics": metrics_to_dict(live.metrics),
            "messages_sent": sum(
                len(ids) for ids in live.outcome.sent.values()
            ),
            "node_stats": {
                str(pid): record["stats"]
                for pid, record in live.node_records.items()
            },
            "stage_breakdown": (
                live.breakdown.to_dict() if live.breakdown is not None else None
            ),
            "ring_stage_breakdowns": (
                None
                if live.per_ring_breakdown is None
                else {
                    str(ring): bd.to_dict()
                    for ring, bd in live.per_ring_breakdown.items()
                }
            ),
        },
        "sim": (
            None
            if sim_metrics is None
            else {
                "metrics": metrics_to_dict(sim_metrics),
                "messages_per_sender": sim_messages_per_sender,
            }
        ),
        "model": {
            "raw_mbps": prediction.raw_mbps,
            "fsr_mbps": prediction.fsr_mbps,
            "fixed_sequencer_mbps": prediction.fixed_sequencer_mbps,
        },
    }
    return payload


def run_live_benchmark(
    spec: LiveClusterSpec,
    out_path: str = "BENCH_live.json",
    timeline_path: Optional[str] = None,
) -> Dict[str, Any]:
    """The full ``python -m repro live`` pipeline; writes ``out_path``."""
    live = run_live_cluster(spec)
    if timeline_path is not None and live.timeline is not None:
        live.timeline.write_jsonl(timeline_path)
    sim_metrics = None
    sim_messages: Optional[int] = None
    if spec.sim_compare:
        live_per_sender = max(
            (len(ids) for ids in live.outcome.sent.values()), default=1
        )
        sim_messages = max(5, min(live_per_sender, _SIM_MESSAGES_CAP))
        sim_metrics = simulate_comparison(spec, sim_messages)
    payload = bench_payload(spec, live, sim_metrics, sim_messages)
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload
