"""The ``python -m repro serve`` benchmark driver.

Launches a serve-mode live cluster (every node runs a
:class:`~repro.serve.server.SessionServer`, no internal senders),
drives the open-loop load generator against it at a sweep of offered
rates, and emits ``BENCH_serve.json`` with the client-visible
latency-vs-offered-load curve — including a kill-the-leader-mid-load
point whose results are gated on the exactly-once invariant battery:

* every *acknowledged* mutating request was applied on every survivor
  exactly once (no lost acked writes, no double applies);
* per client, first applications happen in strictly increasing seq
  order on every node;
* all survivors applied the *identical* command sequence, and a killed
  node's journal is a prefix of it (uniform total order);
* every survivor's state-machine snapshot hashes identically.

Timebase: clients, the launcher's kill stamp, and every node's journal
all read ``CLOCK_MONOTONIC`` (system-wide on Linux), so the
client-visible outage around a SIGKILL is measured on one axis.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.live.runner import LiveCluster, LiveClusterSpec, run_origin
from repro.obs.httpexport import fetch_metrics, prometheus_metric_names
from repro.obs.journal import JsonlReader, Timeline
from repro.obs.reqtrace import (
    RequestBreakdown,
    crosscheck_request_latency,
    request_breakdown,
    request_sort_key,
)
from repro.obs.telemetry import render_prometheus
from repro.serve.loadgen import LoadConfig, LoadStats, run_load
from repro.types import ProcessId

#: How long the nodes get to reach their start barrier.
_START_TIMEOUT_S = 30.0
#: How long survivors get to finish applying acked writes before
#: SIGTERM (see :func:`_await_drain`); generous vs the ~ms it takes.
_DRAIN_TIMEOUT_S = 5.0
#: Ring-quiet window the drain requires on top of write coverage.
_DRAIN_SETTLE_S = 0.2
#: Fraction of the load window after which the leader is killed.
_KILL_AT_FRACTION = 0.35


@dataclass
class ServeSpec:
    """One serve benchmark configuration."""

    processes: int = 3
    t: int = 1
    host: str = "127.0.0.1"
    lease_s: float = 0.8
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 1.0
    #: Offered-load sweep, requests/second (the curve's x axis).
    rates: List[float] = field(default_factory=lambda: [100.0, 300.0, 600.0])
    #: Also run a kill-the-leader point at ``kill_rate``.
    kill_leader: bool = True
    #: Offered rate for the leader-kill point; None uses the middle of
    #: the sweep.
    kill_rate: Optional[float] = None
    #: Load window per point.
    duration_s: float = 4.0
    sessions: int = 20
    read_fraction: float = 0.5
    keys: int = 100
    zipf_s: float = 1.1
    value_bytes: int = 64
    #: Client retry/failover timeout; must exceed one ring round trip
    #: and stay below detection + view change so retries drive failover.
    retry_timeout_s: float = 1.0
    seed: int = 0
    #: End-to-end request tracing (``repro.obs.reqtrace``): clients set
    #: the wire flag, servers journal lifecycle events, and the runner
    #: merges both into a queue/replication/apply/respond breakdown
    #: hard-cross-checked against the load generator's measured mean.
    trace_requests: bool = False
    #: Live metrics plane: ``None`` disables; ``0`` gives every node an
    #: ephemeral ``/metrics`` + ``/healthz`` port; a positive value is a
    #: base port (node ``i`` listens on ``metrics_port + i``).  The
    #: runner scrapes mid-load and gates counter-name parity with the
    #: post-mortem telemetry snapshot.
    metrics_port: Optional[int] = None
    #: Directory for per-node flamegraph-collapsed CPU profiles.
    profile_dir: Optional[str] = None
    #: Node process logging level ("INFO", "DEBUG", ...).
    log_level: Optional[str] = None

    def live_spec(self) -> LiveClusterSpec:
        return LiveClusterSpec(
            processes=self.processes,
            senders=0,
            t=self.t,
            host=self.host,
            duration_s=self.duration_s,
            max_run_s=self.duration_s + 120.0,
            sim_compare=False,
            view_changes=True,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            run_seed=self.seed,
            serve=True,
            lease_s=self.lease_s,
            # Trace events ride the span journals, so tracing implies
            # span collection on every node.
            spans=self.trace_requests,
            trace_requests=self.trace_requests,
            metrics=self.metrics_port is not None,
            metrics_base_port=self.metrics_port or 0,
            profile_dir=self.profile_dir,
            log_level=self.log_level,
        )


@dataclass
class ServePoint:
    """Result of one offered-load point."""

    rate_rps: float
    stats: LoadStats
    killed: Optional[ProcessId] = None
    kill_time: Optional[float] = None
    #: Worst client-visible ack gap in the recovery window around the
    #: kill (the serve analogue of ``recovery_outage_from_spans``).
    outage_s: Optional[float] = None
    #: The outage's first two legs, off the survivors' journals: kill
    #: to first suspicion, first suspicion to the last survivor's
    #: install of the next view.  What is left of ``outage_s`` is the
    #: ring re-dial, the re-broadcasts and the sessions' reconnect.
    detect_s: Optional[float] = None
    view_change_s: Optional[float] = None
    violations: List[str] = field(default_factory=list)
    node_serve_stats: Dict[ProcessId, Dict[str, Any]] = field(default_factory=dict)
    #: Request-stage breakdown over the merged client + node trace
    #: events (``trace_requests`` runs); cross-checked vs the loadgen.
    request_breakdown: Optional[RequestBreakdown] = None
    #: Merged span/trace timeline (``trace_requests`` runs).
    timeline: Optional[Timeline] = None
    #: Mid-load ``/metrics`` scrape text per node (``metrics`` runs).
    live_scrapes: Dict[ProcessId, str] = field(default_factory=dict)
    #: Live-scrape counter names == post-mortem snapshot names; ``None``
    #: when no scrape happened.
    scrape_parity_ok: Optional[bool] = None

    def to_dict(self) -> Dict[str, Any]:
        duration = None
        if self.stats.ack_times:
            duration = max(self.stats.ack_times) - min(self.stats.ack_times)
        achieved = (
            self.stats.completed / duration if duration else None
        )
        return {
            "offered_rps": self.rate_rps,
            "achieved_rps": achieved,
            "killed": self.killed,
            "outage_s": self.outage_s,
            "detect_s": self.detect_s,
            "view_change_s": self.view_change_s,
            "violations": self.violations,
            "load": self.stats.to_dict(),
            "node_serve_stats": {
                str(pid): stats for pid, stats in self.node_serve_stats.items()
            },
            "request_breakdown": (
                self.request_breakdown.to_dict()
                if self.request_breakdown is not None
                else None
            ),
            "scrape_parity_ok": self.scrape_parity_ok,
        }


def load_applied_log(path: str) -> List[Dict[str, Any]]:
    """Extract the session ``apply`` entries from a node journal
    (torn-tail tolerant; a missing journal reads as empty)."""
    return [e for e in JsonlReader(path).poll() if e.get("type") == "apply"]


def verify_serve_run(
    stats: LoadStats,
    applied_by_node: Dict[ProcessId, List[Dict[str, Any]]],
    survivors: List[ProcessId],
    killed: Optional[ProcessId] = None,
    snapshot_hashes: Optional[Dict[ProcessId, str]] = None,
) -> List[str]:
    """The exactly-once invariant battery; returns violations (empty = green)."""
    violations: List[str] = []

    # 1. Acked writes exist exactly once on every survivor.
    for pid in survivors:
        counts: Dict[Tuple[str, int], int] = {}
        for event in applied_by_node.get(pid, []):
            key = (event["client"], event["seq"])
            counts[key] = counts.get(key, 0) + 1
        for key, count in counts.items():
            if count > 1:
                violations.append(
                    f"node {pid}: {key} applied {count} times (double apply)"
                )
        for client, seq, op, _args in stats.acked_writes:
            if counts.get((client, seq), 0) != 1:
                violations.append(
                    f"node {pid}: acked write ({client!r}, {seq}) applied "
                    f"{counts.get((client, seq), 0)} times (lost or duplicated)"
                )

    # 2. Per client, first applications in strictly increasing seq order.
    for pid, applied in applied_by_node.items():
        last_seq: Dict[str, int] = {}
        for event in applied:
            client, seq = event["client"], event["seq"]
            if seq <= last_seq.get(client, 0):
                violations.append(
                    f"node {pid}: client {client!r} seq {seq} applied after "
                    f"{last_seq[client]} (session order violated)"
                )
            last_seq[client] = max(last_seq.get(client, 0), seq)

    # 3. Identical applied sequence on survivors; killed node a prefix.
    sequences = {
        pid: [(e["client"], e["seq"]) for e in applied_by_node.get(pid, [])]
        for pid in applied_by_node
    }
    survivor_seqs = [sequences[pid] for pid in survivors if pid in sequences]
    if survivor_seqs:
        reference = survivor_seqs[0]
        for pid in survivors[1:]:
            if sequences.get(pid, []) != reference:
                violations.append(
                    f"node {pid}: applied sequence diverges from node "
                    f"{survivors[0]} (total order violated)"
                )
        if killed is not None and killed in sequences:
            killed_seq = sequences[killed]
            if killed_seq != reference[: len(killed_seq)]:
                violations.append(
                    f"killed node {killed}: applied sequence is not a prefix "
                    "of the survivors' (uniformity violated)"
                )

    # 4. Survivor state snapshots identical.
    if snapshot_hashes:
        digests = {snapshot_hashes[pid] for pid in survivors if pid in snapshot_hashes}
        if len(digests) > 1:
            violations.append(
                f"survivor snapshot hashes diverge: {sorted(digests)}"
            )
    return violations


def client_outage(
    ack_times: List[float], kill_time: float, window_s: float
) -> Optional[float]:
    """Worst client-visible ack gap caused by a kill.

    The serve analogue of
    :func:`repro.obs.analyze.recovery_outage_from_spans`: the largest
    gap between consecutive acks whose interval intersects
    ``[kill_time, kill_time + window_s]`` — in-flight responses
    draining just after the SIGKILL do not mask the view-change stall,
    and trailing low-rate drain gaps long after recovery do not
    inflate it.  ``None`` when no ack lands in the window.
    """
    window_end = kill_time + window_s
    stamps = sorted(t for t in ack_times if t <= window_end)
    if not stamps or stamps[-1] < kill_time:
        return None
    worst: Optional[float] = None
    previous = stamps[0]
    for stamp in stamps[1:]:
        if stamp >= kill_time:  # gap [previous, stamp] touches the window
            gap = stamp - previous
            worst = gap if worst is None else max(worst, gap)
        previous = stamp
    if worst is None:
        # Single ack in the window: measure from the kill instant.
        return max(0.0, min(t for t in stamps if t >= kill_time) - kill_time)
    return worst


def failover_legs(
    journals: Dict[ProcessId, List[Dict[str, Any]]], kill_issued: float
) -> Tuple[Optional[float], Optional[float]]:
    """``(detect_s, view_change_s)`` of one kill, off survivor journals.

    Detection runs from the instant the SIGKILL was issued (the
    :attr:`LiveCluster.killed` stamp is taken once the victim is
    reaped, which the first suspicion can precede) to the first
    ``suspect`` line any survivor wrote; the view change from there to
    the last survivor's install of view 1.  ``(None, None)`` unless
    every survivor got there.
    """
    events = [e for lines in journals.values() for e in lines]
    suspects = [e["time"] for e in events if e.get("type") == "suspect"]
    installs = [
        e["time"] for e in events
        if e.get("type") == "view" and e["view_id"] == 1
    ]
    if not suspects or len(installs) < len(journals):
        return None, None
    return min(suspects) - kill_issued, max(installs) - min(suspects)


def _scrape_parity(
    scrapes: Dict[ProcessId, str],
    records: Dict[ProcessId, Dict[str, Any]],
) -> Optional[bool]:
    """Counter-name parity: live mid-run scrape vs post-mortem snapshot.

    Every counter the live plane served mid-run must appear in the
    node's final snapshot — otherwise dashboards built on the live
    endpoint name series the record path cannot explain.  The check is
    a subset, not equality: counters register lazily on first use
    (``fd_suspicions``, ``membership_flushes``), so a kill-point
    snapshot legitimately grows names *after* the scrape.  Gauges are
    excluded for the same reason in the other direction.
    """
    if not scrapes:
        return None
    ok = True
    for pid, text in scrapes.items():
        record = records.get(pid)
        if record is None or "telemetry" not in record:
            continue  # a killed node's journal-derived record has none
        post = render_prometheus({pid: record["telemetry"]})
        if not prometheus_metric_names(text) <= prometheus_metric_names(post):
            ok = False
    return ok


def _await_drain(
    cluster: LiveCluster,
    acked_writes: List[Tuple[str, int, str, Any]],
    timeout_s: float,
) -> None:
    """Block until every survivor's journal holds every acked write.

    The launcher owns termination in serve mode, and clients are
    satisfied as soon as *one* replica applies and responds — the
    delivery to a trailing replica can still be on the ring at that
    moment.  SIGTERMing on client completion therefore raced the final
    applies and flaked the uniformity battery (an acked write "applied
    0 times" on the node that lost the race).  Journals are
    append-and-flush per apply, so polling them is enough; on timeout
    we proceed and let the battery report what's genuinely missing.
    """
    acked = {(client, seq) for client, seq, _op, _args in acked_writes}
    survivors = [pid for pid in cluster.members if pid not in cluster.killed]
    deadline = time.monotonic() + timeout_s
    # One incremental reader per survivor: each journal line is parsed
    # once however long the drain takes.
    readers = [JsonlReader(cluster.journal_paths[pid]) for pid in survivors]
    applied_sets: List[set] = [set() for _ in survivors]
    last_counts: Optional[List[int]] = None
    settled_since = time.monotonic()
    while time.monotonic() < deadline:
        for reader, applied in zip(readers, applied_sets):
            applied.update(
                (entry["client"], entry["seq"])
                for entry in reader.poll()
                if entry.get("type") == "apply"
            )
        counts = [len(s) for s in applied_sets]
        if counts != last_counts:
            last_counts = counts
            settled_since = time.monotonic()
        drained = (
            all(acked <= applied for applied in applied_sets)
            # Unacked commands (ordered reads, writes whose client gave
            # up) also mutate the session tables: survivors must reach
            # the *same* applied set and sit still for a beat, or a
            # straggling apply between our check and the SIGTERM still
            # diverges the snapshot hashes.
            and len(set(counts)) == 1
            and time.monotonic() - settled_since >= _DRAIN_SETTLE_S
        )
        if drained:
            return
        time.sleep(0.02)


def run_serve_point(
    spec: ServeSpec, rate_rps: float, kill_leader: bool = False
) -> ServePoint:
    """Launch a serve cluster, drive one load point, verify, tear down."""
    load_config = LoadConfig(
        rate_rps=rate_rps,
        sessions=spec.sessions,
        duration_s=spec.duration_s,
        read_fraction=spec.read_fraction,
        keys=spec.keys,
        zipf_s=spec.zipf_s,
        value_bytes=spec.value_bytes,
        retry_timeout_s=spec.retry_timeout_s,
        seed=spec.seed,
        trace=spec.trace_requests,
    )
    scrapes: Dict[ProcessId, str] = {}
    kill_issued: List[float] = []
    with LiveCluster.launch(spec.live_spec(), journals=True) as cluster:
        cluster.await_started(_START_TIMEOUT_S)
        addresses = [cluster.serve_addresses[pid] for pid in cluster.members]

        async def drive() -> LoadStats:
            loop = asyncio.get_running_loop()
            kill_handle = None
            scrape_task: Optional[asyncio.Task] = None
            if cluster.metrics_addresses:
                async def scrape_mid_load() -> None:
                    # Half the load window: under load by design,
                    # and past the kill fraction so a kill-point
                    # scrape hits the post-failover survivors.
                    await asyncio.sleep(spec.duration_s * 0.5)
                    for pid, addr in cluster.metrics_addresses.items():
                        if pid in cluster.killed:
                            continue
                        try:
                            scrapes[pid] = await fetch_metrics(*addr)
                        except (OSError, asyncio.TimeoutError):
                            pass

                scrape_task = asyncio.ensure_future(scrape_mid_load())
            if kill_leader:
                # Ring position 0 leads the bootstrap view; it holds
                # the lease when the SIGKILL lands mid-load.
                def kill() -> None:
                    kill_issued.append(time.monotonic())
                    cluster.kill(cluster.members[0])

                kill_handle = loop.call_later(
                    spec.duration_s * _KILL_AT_FRACTION, kill
                )
            try:
                return await run_load(addresses, load_config)
            finally:
                if kill_handle is not None:
                    kill_handle.cancel()
                if scrape_task is not None:
                    try:
                        await asyncio.wait_for(scrape_task, 10.0)
                    except (asyncio.TimeoutError, OSError):
                        pass

        stats = asyncio.run(drive())
        _await_drain(cluster, stats.acked_writes, _DRAIN_TIMEOUT_S)
        records = cluster.stop()
        journals = {
            pid: JsonlReader(path).poll()
            for pid, path in cluster.journal_paths.items()
        }
        timeline = cluster.timeline(records)

    applied_by_node = {
        pid: [e for e in events if e.get("type") == "apply"]
        for pid, events in journals.items()
    }
    killed = next(iter(cluster.killed), None)
    kill_time = cluster.killed.get(killed)
    survivors = [pid for pid in cluster.members if pid != killed]
    serve_stats = {
        pid: record["serve"]
        for pid, record in records.items()
        if "serve" in record
    }
    violations = verify_serve_run(
        stats,
        applied_by_node,
        survivors,
        killed,
        {pid: serve["snapshot_hash"] for pid, serve in serve_stats.items()},
    )
    outage_s: Optional[float] = None
    detect_s = view_change_s = None
    if kill_time is not None:
        detect_s, view_change_s = failover_legs(
            {pid: journals[pid] for pid in survivors}, kill_issued[0]
        )
        if any(t >= kill_time for t in stats.ack_times):
            outage_s = client_outage(
                stats.ack_times,
                kill_time,
                window_s=spec.heartbeat_timeout_s + spec.retry_timeout_s + 2.0,
            )
        else:
            violations.append(
                "no acknowledged request after the leader kill "
                "(service never recovered)"
            )
    request_bd: Optional[RequestBreakdown] = None
    if timeline is not None:
        # Client stamps come off the same system-wide CLOCK_MONOTONIC
        # as the node journals, so one rebase puts them on the merged
        # timeline's axis.
        t0 = run_origin(records)
        timeline.requests.extend(
            event.rebased(t0) for event in stats.request_events
        )
        timeline.requests.sort(key=request_sort_key)
    if timeline is not None and timeline.requests:
        request_bd = request_breakdown(timeline.requests)
        if stats.latencies and killed is None:
            # §4.3.1-style hard gate: the traced end-to-end mean must
            # agree with the load generator's measured mean within 5% —
            # stage sums that don't add up to what clients observed are
            # a tracing bug, not a finding.
            crosscheck_request_latency(
                request_bd, sum(stats.latencies) / len(stats.latencies)
            )
    scrape_parity = _scrape_parity(scrapes, records)
    if scrape_parity is False:
        violations.append(
            "live /metrics counter names diverge from the "
            "post-mortem telemetry snapshot"
        )
    return ServePoint(
        rate_rps=rate_rps,
        stats=stats,
        killed=killed,
        kill_time=kill_time,
        outage_s=outage_s,
        detect_s=detect_s,
        view_change_s=view_change_s,
        violations=violations,
        node_serve_stats=serve_stats,
        request_breakdown=request_bd,
        timeline=timeline,
        live_scrapes=scrapes,
        scrape_parity_ok=scrape_parity,
    )


def run_serve_benchmark(
    spec: ServeSpec,
    out_path: str = "BENCH_serve.json",
    timeline_path: Optional[str] = None,
    prom_path: Optional[str] = None,
) -> Dict[str, Any]:
    """The full ``python -m repro serve`` pipeline; writes ``out_path``.

    With ``timeline_path``, the first traced point's merged timeline is
    written as JSONL (readable back by ``repro obs``); with
    ``prom_path``, the first mid-load Prometheus scrape is saved as
    exposition text — the two CI artifacts of the obs-serve smoke job.
    """
    points = [run_serve_point(spec, rate) for rate in spec.rates]
    kill_point: Optional[ServePoint] = None
    if spec.kill_leader:
        kill_rate = (
            spec.kill_rate
            if spec.kill_rate is not None
            else spec.rates[len(spec.rates) // 2]
        )
        kill_point = run_serve_point(spec, kill_rate, kill_leader=True)
    all_points = points + ([kill_point] if kill_point is not None else [])
    if timeline_path is not None:
        for point in all_points:
            if point.timeline is not None:
                point.timeline.write_jsonl(timeline_path)
                break
    if prom_path is not None:
        sections = []
        for point in all_points:
            if point.live_scrapes:
                for pid, text in sorted(point.live_scrapes.items()):
                    sections.append(
                        f"# node {pid} offered_rps={point.rate_rps}\n{text}"
                    )
                break
        if sections:
            with open(prom_path, "w") as fh:
                fh.write("\n".join(sections))
    payload: Dict[str, Any] = {
        "schema": "repro.bench_serve/1",
        "config": asdict(spec),
        "curve": [point.to_dict() for point in points],
        "kill_point": kill_point.to_dict() if kill_point is not None else None,
        "invariants_ok": all(not point.violations for point in all_points),
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload
