"""The five live workloads: launch a real 3-process loopback cluster,
load it, judge it, and turn what it left behind into metrics.

Every cluster is n=3 node processes, t=1, loopback TCP, **no injected
delay**: latency here is processor + kernel time only.  Clusters come
from the public ``repro.live.runner.LiveCluster`` and are loaded either
by their own closed-loop senders (``ring_*``) or by ``bench/loadgen.py``
sessions (``serve_*``).  Nothing under ``src/`` is instrumented for
this: per-workload layer metrics are read from the node records'
existing telemetry, the node journals, and ``/proc`` CPU accounting.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import socket
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CheckFailure, NetworkError
from repro.checker.order import check_all
from repro.live.runner import LiveCluster, LiveClusterSpec, merge_node_records
from repro.obs.journal import merge_span_journals, rebase_request
from repro.obs.reqtrace import request_breakdown, request_sort_key
from repro.serve.runner import ServeSpec, client_outage, verify_serve_run

import loadgen
import tracing
from stats import (
    interior,
    latencies_with_failures,
    ms,
    percentile,
    tail_percentile,
    window_bins,
)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
HOOK_DIR = os.path.join(BENCH_DIR, "hook")
#: Everything a run writes goes under here (inside the checkout).
RUN_ROOT = os.path.join(ROOT, ".bench_run")

PROCESSES = 3
START_TIMEOUT_S = 30.0
SHUTDOWN_GRACE_S = 15.0
DRAIN_TIMEOUT_S = 5.0
DRAIN_SETTLE_S = 0.2
#: The leader dies this far into the load window.  (The issue's 5 s of
#: 15 s, moved to 7.5 s of 10 s: the healthy rate comes from the windows
#: *before* the kill, and six whole windows there leave the quiet-window
#: rule something to choose from; the kill lands mid-window so timer
#: jitter cannot cost one; 2.5 s of load follow it, twice the outage.)
KILL_AT_FRACTION = 0.75
#: The sessions' resend timer.  ``SessionClient``'s default (1.0 s) ties
#: with the 1.0 s heartbeat timeout: whichever fires first decides
#: whether the follower's session rotates servers and resends its whole
#: backlog in the middle of the view change, and the outage falls into
#: one of two modes (1.05 s or 1.2 s) per run.  Clear of the outage the
#: race is gone; a SIGKILLed leader resets its session at once, so
#: failover does not wait for this timer.
RETRY_TIMEOUT_S = 2.0
#: ``serve_open`` pass line: tail latency at the fixed rate.
OPEN_TAIL_LIMIT_MS = 25.0
#: The tail that is reported (not bounded: README "Why only the median").
TAIL_Q = 0.99
#: ``serve_leader_kill`` takes its median over the requests that came
#: due in this many seconds after the kill (100 of them at 500 rps).
KILL_TAIL_S = 0.2
#: A 1 s window is *quiet* when the hypervisor stole at most this share
#: of the box's CPU time in it (``/proc/stat``); see ``rate_ops``.
QUIET_STEAL = 0.02
#: Fewer quiet windows than this and the run is rated over all of them.
MIN_QUIET = 3
#: Slack on "detect + view change <= outage".  The outage is the worst
#: *ack gap*, and it opens late: requests the survivors had already
#: ordered when the SIGKILL landed are still answered (up to 0.13 s
#: after it on a loaded box), while detection counts from the kill.
OUTAGE_SLACK_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ring" | "serve"
    why: str
    #: ring: payload bytes and closed-loop window per sender.
    message_bytes: int = 0
    window: int = 0
    #: serve: "open" (Poisson at ``rate_rps``) or "closed".
    loop: str = ""
    rate_rps: float = 0.0
    read_fraction: float = 0.5
    outstanding: int = 0
    kill_leader: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ring_small_sat", "ring",
            "64 B closed-loop ring at saturation: per-message CPU (fsr automaton, "
            "codec headers, batched transport) is everything",
            message_bytes=64, window=16,
        ),
        Workload(
            "ring_large_sat", "ring",
            "100 KB closed-loop ring (the paper's size): per-byte work dominates; "
            "control for per-message optimisations, comparable with sim and model",
            message_bytes=100_000, window=4,
        ),
        Workload(
            "serve_open", "serve",
            "open-loop Poisson 500 rps, 50% get / 50% put, Zipf keys, ring idle and "
            "unbatched: latency is hop wake-ups, JSON wire, lease reads vs ordered writes",
            loop="open", rate_rps=500.0, read_fraction=0.5,
        ),
        Workload(
            "serve_sat", "serve",
            "closed loop, 2 connections x 32 outstanding, 10% reads: serve-tier capacity "
            "(wire JSON, dispatch, dedup, journal appends on the ordered write path)",
            loop="closed", read_fraction=0.1, outstanding=32,
        ),
        Workload(
            "serve_leader_kill", "serve",
            "serve_open traffic with SIGKILL of the leader at 75% of the run, requests scheduled "
            "through the outage: detector, view change, client failover, exactly-once dedup",
            loop="open", rate_rps=500.0, read_fraction=0.5, kill_leader=True,
        ),
    )
}


@dataclass
class Gate:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class RunOutcome:
    """One cluster run, reduced to numbers."""

    workload: str
    seconds: float
    traced: bool
    setup_s: float
    attempted: int
    failed: int
    #: Completion stamps and the send window they are rated over.
    ops_per_s: float
    #: Windows the rates and latencies are taken over, and how many of
    #: the interior windows were quiet (see ``rate_ops``).
    windows: int
    quiet_windows: int
    #: Mean stolen share of the kept windows: how disturbed the rated
    #: part of the run still was.
    kept_steal: float
    op_p50_ms: float
    #: Requests behind ``op_p50_ms``.
    samples: int
    #: The healthy pool's ``TAIL_Q`` (or the highest quantile with ten
    #: samples beyond it): reported per layer, never bounded.
    op_tail_ms: float
    tail_quantile: float
    #: Per-window counts, steal and latency quantiles, for the result file.
    detail: Dict[str, Any] = field(default_factory=dict)
    #: Per-workload layer metrics (name -> value).
    layers: Dict[str, float] = field(default_factory=dict)
    gates: List[Gate] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Self CPU µs per layer and op count (traced runs).
    self_us: Dict[str, float] = field(default_factory=dict)
    spans_sampled: int = 0
    completed: int = 0
    node_cpu_us: float = 0.0

    @property
    def correct(self) -> bool:
        return all(gate.ok for gate in self.gates)


# -- process accounting ----------------------------------------------------
class ProcSampler(threading.Thread):
    """Samples user+sys CPU of the node processes from ``/proc``.

    CPU between two instants is read off the samples by interpolation,
    so start-up imports and the exit-time record dump stay out of the
    per-operation CPU numbers.
    """

    def __init__(self, pids: Dict[int, int], period_s: float = 0.05) -> None:
        super().__init__(daemon=True)
        self._pids = dict(pids)
        self._period = period_s
        self._stop_event = threading.Event()
        self._tick = os.sysconf("SC_CLK_TCK")
        self.samples: Dict[int, List[Tuple[float, float]]] = {
            node: [] for node in pids
        }
        #: (time, CPU seconds the hypervisor gave to someone else).
        self.steal: List[Tuple[float, float]] = []

    def _read(self, pid: int) -> Optional[float]:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            return None
        return (int(fields[11]) + int(fields[12])) / self._tick

    def _read_steal(self) -> float:
        try:
            with open("/proc/stat") as fh:
                fields = fh.readline().split()
            return int(fields[8]) / self._tick
        except (OSError, IndexError, ValueError):
            return 0.0  # no steal accounting here: every window is quiet

    def run(self) -> None:
        while not self._stop_event.is_set():
            now = time.monotonic()
            self.steal.append((now, self._read_steal()))
            for node, pid in self._pids.items():
                cpu = self._read(pid)
                if cpu is not None:
                    self.samples[node].append((now, cpu))
            self._stop_event.wait(self._period)

    def stop(self) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=5.0)

    @staticmethod
    def _at(samples: List[Tuple[float, float]], when: float) -> float:
        if not samples:
            return 0.0
        if when <= samples[0][0]:
            return samples[0][1]
        for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
            if t0 <= when <= t1:
                return c0 + (c1 - c0) * (when - t0) / (t1 - t0) if t1 > t0 else c1
        return samples[-1][1]

    def cpu_between(self, start: float, end: float) -> float:
        """CPU seconds all sampled processes burned in [start, end]."""
        return sum(
            self._at(samples, end) - self._at(samples, start)
            for samples in self.samples.values()
        )

    def steal_fraction(self, start: float, end: float) -> float:
        """Share of the box's CPU time stolen in [start, end]."""
        stolen = self._at(self.steal, end) - self._at(self.steal, start)
        return stolen / ((end - start) * (os.cpu_count() or 1))

    def alive_between(self, start: float, end: float) -> float:
        """Process-seconds of life in [start, end] (a killed node stops
        being sampled, so it stops counting)."""
        total = 0.0
        for samples in self.samples.values():
            if samples:
                last = samples[-1][0] + self._period
                total += max(0.0, min(end, last) - start)
        return total


# -- cluster plumbing ------------------------------------------------------
def make_workdir(tag: str) -> str:
    path = os.path.join(RUN_ROOT, f"{tag}-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


@contextmanager
def trace_environment(trace_dir: Optional[str]) -> Iterator[None]:
    """While active, spawned node processes load ``bench/hook``."""
    if trace_dir is None:
        yield
        return
    os.makedirs(trace_dir, exist_ok=True)
    saved = {key: os.environ.get(key) for key in ("PYTHONPATH", tracing.ENV_DIR)}
    existing = saved["PYTHONPATH"]
    os.environ["PYTHONPATH"] = (
        HOOK_DIR if not existing else HOOK_DIR + os.pathsep + existing
    )
    os.environ[tracing.ENV_DIR] = trace_dir
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def launch(
    spec: LiveClusterSpec, workdir: str, *, journals: bool,
    trace_dir: Optional[str] = None,
) -> Tuple[LiveCluster, float]:
    """Spawn the cluster; returns it and the instant before the first
    ``Popen`` (``CLOCK_MONOTONIC``, the nodes' own time axis)."""
    with trace_environment(trace_dir):
        t_popen = time.monotonic()
        return LiveCluster(spec, workdir, journals=journals), t_popen


class JournalTail:
    """Incremental reader of one node's append-and-flush JSONL journal."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._offset = 0
        self.start_time: Optional[float] = None
        self.applied: List[Dict[str, Any]] = []
        self.applied_keys: set = set()
        self.views: List[Dict[str, Any]] = []

    def poll(self) -> None:
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return
        end = chunk.rfind(b"\n")
        if end < 0:
            return  # nothing but (at most) a torn tail line
        self._offset += end + 1
        for line in chunk[:end].splitlines():
            # Deliveries dominate the journal; only parse what is read.
            if b'"apply"' in line or b'"start"' in line or b'"view"' in line:
                event = json.loads(line)
                kind = event.get("type")
                if kind == "apply":
                    self.applied.append(event)
                    self.applied_keys.add((event["client"], event["seq"]))
                elif kind == "start":
                    self.start_time = event["time"]
                elif kind == "view":
                    self.views.append(event)


def await_started(
    cluster: LiveCluster, tails: Dict[int, JournalTail], timeout_s: float
) -> float:
    """Block until every node journalled its start barrier and (serve
    clusters) its session port accepts; returns the instant the last
    node got there."""
    deadline = time.monotonic() + timeout_s
    waiting = set(cluster.members)
    ready = 0.0
    while waiting:
        for pid in sorted(waiting):
            if cluster.procs[pid].poll() is not None:
                cluster.raise_on_failures()
                raise NetworkError(f"node {pid} exited before its start barrier")
            tails[pid].poll()
            if tails[pid].start_time is None:
                continue
            address = cluster.serve_addresses.get(pid)
            if address is not None:
                try:
                    socket.create_connection(address, timeout=1.0).close()
                except OSError:
                    continue
            waiting.discard(pid)
            # A ring node's barrier is its journalled start stamp; a
            # serving node is ready when we saw its port accept.
            ready = max(
                ready,
                tails[pid].start_time if address is None else time.monotonic(),
            )
        if waiting and time.monotonic() > deadline:
            raise NetworkError(
                f"nodes {sorted(waiting)} not started after {timeout_s:.0f}s"
            )
        if waiting:
            time.sleep(0.01)
    return ready


def await_drain(
    tails: Dict[int, JournalTail],
    survivors: Sequence[int],
    acked_writes: Sequence[Tuple[str, int, str, Any]],
    timeout_s: float = DRAIN_TIMEOUT_S,
) -> None:
    """Wait until every survivor's journal holds every acked write and
    the survivors' applied counts agree and sit still — a client is
    answered by *one* replica; SIGTERM must not race the others' applies."""
    acked = {(client, seq) for client, seq, _op, _args in acked_writes}
    deadline = time.monotonic() + timeout_s
    last: Optional[List[int]] = None
    settled = time.monotonic()
    while time.monotonic() < deadline:
        for pid in survivors:
            tails[pid].poll()
        counts = [len(tails[pid].applied) for pid in survivors]
        if counts != last:
            last, settled = counts, time.monotonic()
        if (
            len(set(counts)) == 1
            and time.monotonic() - settled >= DRAIN_SETTLE_S
            and all(acked <= tails[pid].applied_keys for pid in survivors)
        ):
            return
        time.sleep(0.02)


def stop_cluster(cluster: LiveCluster, skip: set) -> Dict[int, Dict[str, Any]]:
    """SIGTERM the survivors, wait for their records, load them."""
    cluster.terminate(skip=skip)
    cluster.wait(SHUTDOWN_GRACE_S, skip=skip, fail_fast=False)
    cluster.raise_on_failures(skip=skip)
    return cluster.collect(skip=skip)


# -- specs -----------------------------------------------------------------
def ring_spec(workload: Workload, seed: int, seconds: float) -> LiveClusterSpec:
    return LiveClusterSpec(
        processes=PROCESSES, senders=PROCESSES, t=1,
        message_bytes=workload.message_bytes, window=workload.window,
        duration_s=seconds, max_run_s=seconds + 60.0,
        batch_bytes=60_000, batch_messages=64, batch_delay_s=0.001,
        sim_compare=False, run_seed=seed,
    )


def serve_spec(seed: int, trace_requests: bool = False) -> LiveClusterSpec:
    return ServeSpec(
        processes=PROCESSES, seed=seed, trace_requests=trace_requests
    ).live_spec()


# -- set-up time -----------------------------------------------------------
def journal_tails(cluster: LiveCluster) -> Dict[int, JournalTail]:
    return {pid: JournalTail(path) for pid, path in cluster.journal_paths.items()}


def probe_setup(workload: Workload, seed: int) -> float:
    """Launch a cluster only to time its set-up, then stop it."""
    workdir = make_workdir(f"{workload.name}-setup")
    spec = (
        ring_spec(workload, seed, START_TIMEOUT_S)
        if workload.kind == "ring" else serve_spec(seed)
    )
    try:
        cluster, t_popen = launch(spec, workdir, journals=True)
        try:
            ready = await_started(cluster, journal_tails(cluster), START_TIMEOUT_S)
            cluster.terminate()
            cluster.wait(SHUTDOWN_GRACE_S, fail_fast=False)
        finally:
            cluster.shutdown()
        return ready - t_popen
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- shared reductions -----------------------------------------------------
def _telemetry_layers(
    records: Dict[int, Dict[str, Any]], completed: int
) -> Dict[str, float]:
    """Transport / node telemetry every live node record carries."""
    def total(key: str) -> float:
        return float(sum(r["stats"][key] for r in records.values()))

    frames, flushes = total("frames_sent"), total("flushes")
    ops = max(1, completed)
    lag = [
        r["telemetry"]["histograms"].get("event_loop_lag_s", {}).get("p99", 0.0)
        for r in records.values()
    ]
    counters = [r["telemetry"]["counters"] for r in records.values()]
    gauges = [r["telemetry"]["gauges"] for r in records.values()]
    return {
        "node.loop_lag_p99_ms": max(lag, default=0.0) * 1e3,
        "transport.frames_per_op": frames / ops,
        "transport.bytes_per_op": total("bytes_sent") / ops,
        "transport.frames_per_flush": frames / flushes if flushes else 0.0,
        "transport.bytes_per_flush": (
            total("bytes_sent") / flushes if flushes else 0.0
        ),
        "transport.acks_ridden_ratio": (
            total("acks_ridden") / frames if frames else 0.0
        ),
        "transport.tx_stalls": float(
            sum(c.get("transport_tx_stalls", 0) for c in counters)
        ),
        "transport.queued_bytes_hwm": max(
            (g.get("transport_queued_bytes", {}).get("high_water", 0.0)
             for g in gauges),
            default=0.0,
        ),
        "membership.views_installed": float(
            max((c.get("views_installed", 0) for c in counters), default=0)
        ),
        "detector.false_suspicions": float(
            sum(c.get("fd_suspicions", 0) for c in counters)
        ),
    }


def _cpu_layers(
    sampler: ProcSampler, start: float, end: float, completed: int
) -> Tuple[Dict[str, float], float]:
    cpu_s = sampler.cpu_between(start, end)
    alive = sampler.alive_between(start, end)
    return {
        "node.cpu_us_per_op": cpu_s * 1e6 / max(1, completed),
        "node.cpu_busy_fraction": cpu_s / alive if alive > 0 else 0.0,
    }, cpu_s * 1e6


def rate_ops(
    ops: Sequence[Tuple[float, float]],
    failed: int,
    start: float,
    end: float,
    sampler: ProcSampler,
    kill_time: Optional[float] = None,
) -> Dict[str, Any]:
    """Throughput and latency of one run, over its *quiet* windows.

    ``ops`` are ``(begun, completed)`` stamps of the completed
    operations (begun = the instant the operation was due).  The send
    window ``[start, end)`` is tiled into whole 1 s windows, first and
    last dropped.  This box is a VM whose neighbours steal CPU in bursts
    of seconds, which moves every wall-clock number by tens of percent;
    so a window counts only if the hypervisor stole at most
    ``QUIET_STEAL`` of the CPU time in it — unless fewer than
    ``MIN_QUIET`` windows pass, then the ``MIN_QUIET`` least-robbed
    interior windows count and the run says so.  The rule looks at the
    host, never at the outcome.

    * rate: median completions per kept window;
    * latency: operations *begun* in a kept window, plus every failed
      one (+inf): a failure is never excused by a noisy window.

    With ``kill_time`` (the kill workload) the median is instead taken
    over every operation that came due in the ``KILL_TAIL_S`` after the
    kill, quiet window or not: each of them waits for the failover, so
    the median reads ``outage - KILL_TAIL_S / 2`` and moves 1:1 with the
    outage.  The rate (and the reported tail) then come from the
    windows *before* the kill: afterwards both connections sit on the
    new leader of a 2-node ring and half the requests are lease-local
    reads.
    """
    bins = window_bins([done for _begun, done in ops], start, end)
    candidates = interior(len(bins))
    if kill_time is not None:
        healthy = [i for i in candidates if start + i + 1 <= kill_time]
        if len(healthy) >= MIN_QUIET:
            candidates = healthy
    steal = [
        sampler.steal_fraction(start + i, start + i + 1) for i in range(len(bins))
    ]
    quiet = [i for i in candidates if steal[i] <= QUIET_STEAL]
    keep = quiet if len(quiet) >= MIN_QUIET else sorted(
        sorted(candidates, key=lambda i: steal[i])[:MIN_QUIET]
    )
    kept = set(keep)
    pool = sorted(
        done - begun for begun, done in ops
        if begun >= start and int(begun - start) in kept
    )
    median_pool = pool if kill_time is None else sorted(
        done - begun for begun, done in ops
        if kill_time <= begun < kill_time + KILL_TAIL_S
    )
    tail, used = tail_percentile(latencies_with_failures(pool, failed), TAIL_Q)
    return {
        "ops_per_s": float(statistics.median(bins[i] for i in keep)),
        "windows": len(keep),
        "quiet_windows": len(quiet),
        "op_p50_ms": ms(
            percentile(latencies_with_failures(median_pool, failed), 0.5)
        ),
        "samples": len(median_pool) + failed,
        "op_tail_ms": ms(tail),
        "tail_quantile": used,
        "host.steal_fraction": sampler.steal_fraction(start, end),
        "kept_steal": statistics.mean(steal[i] for i in keep),
        "host.quiet_windows": float(len(quiet)),
        # Kept in the result file for whoever has to explain a number.
        "detail": {
            "window_ops": bins,
            "window_steal": [round(x, 4) for x in steal],
            "kept_windows": keep,
            "latency_ms": {
                f"p{round(q * 100)}": ms(percentile(pool, q))
                for q in (0.5, 0.75, 0.9, 0.99) if pool
            },
        },
    }


def _read_traces(trace_dir: Optional[str], outcome: RunOutcome) -> None:
    if trace_dir is None:
        return
    traces = tracing.load_traces(trace_dir)
    outcome.self_us = tracing.self_us_by_layer(traces)
    outcome.spans_sampled = sum(len(t["spans"]) for t in traces)
    if len(traces) < PROCESSES:
        outcome.notes.append(
            f"{len(traces)} of {PROCESSES} nodes wrote a trace (a SIGKILLed "
            "node cannot); self times cover the survivors only"
        )


def _outcome_from(
    rated: Dict[str, Any], workload: Workload, seconds: float, traced: bool,
    setup_s: float, attempted: int, failed: int, completed: int,
) -> RunOutcome:
    outcome = RunOutcome(
        workload=workload.name, seconds=seconds, traced=traced,
        setup_s=setup_s, attempted=attempted, failed=failed,
        ops_per_s=rated["ops_per_s"], windows=int(rated["windows"]),
        quiet_windows=int(rated["quiet_windows"]), kept_steal=rated["kept_steal"],
        op_p50_ms=rated["op_p50_ms"], samples=int(rated["samples"]),
        op_tail_ms=rated["op_tail_ms"], tail_quantile=rated["tail_quantile"],
        detail=rated["detail"], completed=completed,
    )
    outcome.layers.update(
        {name: value for name, value in rated.items() if name.startswith("host.")}
    )
    if outcome.quiet_windows < MIN_QUIET:
        outcome.notes.append(
            f"noisy host: only {outcome.quiet_windows} quiet windows "
            f"(steal <= {QUIET_STEAL:.0%}); rated over the {outcome.windows} "
            f"least-robbed (mean steal {outcome.kept_steal:.1%})"
        )
    return outcome


# -- ring workloads --------------------------------------------------------
def run_ring(
    workload: Workload, seed: int, seconds: float, traced: bool
) -> RunOutcome:
    workdir = make_workdir(workload.name)
    trace_dir = os.path.join(workdir, "trace") if traced else None
    spec = ring_spec(workload, seed, seconds)
    try:
        cluster, t_popen = launch(spec, workdir, journals=False, trace_dir=trace_dir)
        sampler = ProcSampler({pid: p.pid for pid, p in cluster.procs.items()})
        sampler.start()
        try:
            cluster.wait(spec.connect_timeout_s + spec.max_run_s)
            t_exit = time.monotonic()
            cluster.raise_on_failures()
            records = cluster.collect()
        finally:
            sampler.stop()
            cluster.shutdown()

        verify_start = time.monotonic()
        result, _workload_outcome = merge_node_records(spec, records)
        try:
            check_all(result)
            order_error = None
        except CheckFailure as exc:
            order_error = str(exc)
        completions = result.completion_times()
        verify_s = time.monotonic() - verify_start

        starts = [r["start_time"] for r in records.values()]
        t0 = min(starts)
        window_start = max(starts) - t0
        window_end = seconds  # the earliest sender's deadline, rebased to t0
        submit = {b.message_id: b.submit_time for b in result.broadcasts}
        attempted = len(result.broadcasts)
        failed = attempted - len(completions)
        rated = rate_ops(
            [(t0 + submit[mid], t0 + done) for mid, done in completions.items()],
            failed, t0 + window_start, t0 + window_end, sampler,
        )
        outcome = _outcome_from(
            rated, workload, seconds, traced, max(starts) - t_popen,
            attempted, failed, len(completions),
        )
        last_done = t0 + max(completions.values(), default=window_end)
        cpu_layers, outcome.node_cpu_us = _cpu_layers(
            sampler, max(starts), last_done, len(completions)
        )
        outcome.layers.update(cpu_layers)
        outcome.layers.update(_telemetry_layers(records, len(completions)))
        outcome.layers.update({
            "ring.deliver_p50_ms": outcome.op_p50_ms,
            "ring.deliver_p99_ms": outcome.op_tail_ms,
            "ring.goodput_mbps": (
                outcome.ops_per_s * workload.message_bytes * 8 / 1e6
            ),
            "runner.teardown_s": t_exit - (t0 + seconds),
            "checker.verify_s": verify_s,
        })
        timed_out = any(r.get("timed_out") for r in records.values())
        outcome.gates = [
            Gate("order_ok", order_error is None, order_error or ""),
            Gate("not_timed_out", not timed_out),
            Gate("all_delivered_everywhere", failed == 0,
                 f"{failed} of {attempted} broadcasts undelivered somewhere"),
            Gate("views_stay_bootstrap",
                 outcome.layers["membership.views_installed"] == 1.0),
        ]
        _read_traces(trace_dir, outcome)
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- serve workloads -------------------------------------------------------
def snapshot_verdict(
    serve_stats: Dict[int, Dict[str, Any]]
) -> Tuple[int, List[str]]:
    """Compare exit-time snapshot hashes between survivors.

    Only replicas that stopped at the *same* ``applied_index`` must
    hash alike: an ``@lease`` renewal in flight at SIGTERM legitimately
    leaves one survivor an entry ahead.  That case is counted as
    ``teardown_skew``; a mismatch at equal ``applied_index`` is a
    state divergence.  Returns ``(teardown_skew, violations)``.
    """
    by_index: Dict[int, Dict[str, List[int]]] = {}
    for pid, stats in sorted(serve_stats.items()):
        by_index.setdefault(stats["applied_index"], {}).setdefault(
            stats["snapshot_hash"], []
        ).append(pid)
    violations = [
        f"snapshot hashes diverge at applied_index {index}: "
        + ", ".join(f"{digest} on nodes {pids}" for digest, pids in hashes.items())
        for index, hashes in by_index.items()
        if len(hashes) > 1
    ]
    return (1 if len(by_index) > 1 else 0), violations


def response_violations(load: loadgen.LoadResult) -> List[str]:
    """A read (or a put's previous value) must be null or a value some
    request wrote *to that key*."""
    bad = [
        f"{r.op} {r.key} returned {str(r.result)[:24]!r}"
        for r in load.records
        if not r.failed and r.result is not None
        and not str(r.result).startswith(r.key + "|")
    ]
    return bad[:5]


def run_serve(
    workload: Workload, seed: int, seconds: float, traced: bool
) -> RunOutcome:
    workdir = make_workdir(workload.name)
    trace_dir = os.path.join(workdir, "trace") if traced else None
    # The request-stage budget rides the existing trace_requests plane;
    # only the open-loop point below the knee publishes it.
    trace_requests = traced and workload.name == "serve_open"
    conns = loadgen.connection_count()
    try:
        cluster, t_popen = launch(
            serve_spec(seed, trace_requests), workdir, journals=True,
            trace_dir=trace_dir,
        )
        killed: Optional[int] = None
        kill_time: Optional[float] = None
        sampler = ProcSampler({pid: p.pid for pid, p in cluster.procs.items()})
        try:
            tails = journal_tails(cluster)
            ready = await_started(cluster, tails, START_TIMEOUT_S)
            sampler.start()
            addresses = [cluster.serve_addresses[pid] for pid in cluster.members]

            async def drive(clients) -> loadgen.LoadResult:
                nonlocal killed, kill_time
                loop = asyncio.get_running_loop()
                handle = None
                if workload.kill_leader:
                    def do_kill() -> None:
                        nonlocal killed, kill_time
                        # Ring position 0 leads the bootstrap view and
                        # holds the lease.
                        kill_time = loop.time()
                        if cluster.kill(cluster.members[0]):
                            killed = cluster.members[0]

                    handle = loop.call_later(seconds * KILL_AT_FRACTION, do_kill)
                try:
                    if workload.loop == "open":
                        plan = loadgen.plan_open_loop(
                            seed, workload.rate_rps, seconds,
                            workload.read_fraction, conns=conns,
                        )
                        return await loadgen.drive_open_loop(clients, plan)
                    return await loadgen.drive_closed_loop(
                        clients,
                        loadgen.closed_loop_streams(
                            seed, workload.read_fraction, conns=conns
                        ),
                        outstanding=workload.outstanding, duration_s=seconds,
                    )
                finally:
                    if handle is not None:
                        handle.cancel()

            load = asyncio.run(loadgen.with_sessions(
                addresses, seed, conns, drive,
                retry_timeout_s=RETRY_TIMEOUT_S, trace_requests=trace_requests,
            ))
            skip = {killed} if killed is not None else set()
            survivors = [pid for pid in cluster.members if pid not in skip]
            await_drain(tails, survivors, load.acked_writes)
            teardown_start = time.monotonic()
            records = stop_cluster(cluster, skip)
            teardown_s = time.monotonic() - teardown_start
        finally:
            sampler.stop()
            cluster.shutdown()

        verify_start = time.monotonic()
        for tail in tails.values():
            tail.poll()
        violations = verify_serve_run(
            load, {pid: tail.applied for pid, tail in tails.items()},
            survivors, killed,
        )
        serve_stats = {pid: r["serve"] for pid, r in records.items()}
        skew, hash_violations = snapshot_verdict(serve_stats)
        violations += hash_violations + response_violations(load)
        verify_s = time.monotonic() - verify_start

        outage = _client_outage(load, kill_time)
        completed = load.attempted - load.failed
        rated = rate_ops(
            [(r.due, r.acked) for r in load.records if not r.failed],
            load.failed, load.start, load.end, sampler,
            kill_time=kill_time,
        )
        outcome = _outcome_from(
            rated, workload, seconds, traced, ready - t_popen,
            load.attempted, load.failed, completed,
        )
        last_ack = max(load.ack_times, default=load.end)
        cpu_layers, outcome.node_cpu_us = _cpu_layers(
            sampler, load.start, last_ack, completed
        )
        outcome.layers.update(cpu_layers)
        outcome.layers.update(_telemetry_layers(records, completed))

        def served(key: str) -> float:
            return float(sum(s[key] for s in serve_stats.values()))

        requests = max(1.0, served("requests"))
        reads = sorted(load.latencies(loadgen.READ))
        writes = sorted(load.latencies(loadgen.WRITE))
        lags = sorted(load.lags())
        outcome.layers.update({
            "server.local_read_ratio": served("local_reads") / requests,
            "server.ordered_ratio": served("ordered") / requests,
            "server.lease_rejects": served("lease_rejects"),
            "server.barrier_rejects": served("barrier_rejects"),
            "server.dedup_hits": served("dedup_hits"),
            "server.cached": served("cached"),
            "client.retries": float(load.retries),
            "client.reconnects": float(load.reconnects),
            "client.cached_responses": float(load.cached_responses),
            "client.read_p50_ms": ms(percentile(reads, 0.5)) if reads else 0.0,
            "client.write_p50_ms": ms(percentile(writes, 0.5)) if writes else 0.0,
            "client.p99_ms": outcome.op_tail_ms,
            "loadgen.lag_p99_ms": ms(percentile(lags, 0.99)),
            "loadgen.outstanding_at_end": float(load.outstanding_at_end),
            "runner.teardown_s": teardown_s,
            "runner.teardown_skew": float(skew),
            "checker.verify_s": verify_s,
        })
        gates = [
            Gate("exactly_once_battery", not violations, "; ".join(violations[:3])),
            Gate("no_failed_requests", load.failed == 0,
                 f"{load.failed} of {load.attempted} errored / timed out / unacked"),
        ]
        if workload.kill_leader:
            gates += _kill_gates(
                outcome, outage, tails, records, survivors, killed, kill_time
            )
        else:
            gates += [
                Gate("dedup_hits_zero", served("dedup_hits") == 0),
                Gate("views_stay_bootstrap",
                     outcome.layers["membership.views_installed"] == 1.0),
                Gate("no_suspicions",
                     outcome.layers["detector.false_suspicions"] == 0.0),
            ]
        if workload.name == "serve_open":
            backlog_ok = load.outstanding_at_end <= workload.rate_rps * 0.1
            outcome.notes.append(
                f"pass line client.p99_ms <= {OPEN_TAIL_LIMIT_MS:g} with no growing "
                f"backlog: {'met' if outcome.op_tail_ms <= OPEN_TAIL_LIMIT_MS and backlog_ok else 'MISSED'}"
            )
        outcome.gates = gates
        if trace_requests:
            _request_stages(cluster, records, load, outcome)
        _read_traces(trace_dir, outcome)
        return outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _client_outage(
    load: loadgen.LoadResult, kill_time: Optional[float]
) -> Optional[float]:
    """``client_outage()``: the worst ack gap touching the kill window;
    ``None`` without a kill or when no ack ever followed it."""
    if kill_time is None or not any(t >= kill_time for t in load.ack_times):
        return None
    spec = ServeSpec()
    return client_outage(
        load.ack_times, kill_time,
        window_s=spec.heartbeat_timeout_s + spec.retry_timeout_s + 2.0,
    )


def _kill_gates(
    outcome: RunOutcome,
    outage: Optional[float],
    tails: Dict[int, JournalTail],
    records: Dict[int, Dict[str, Any]],
    survivors: Sequence[int],
    killed: Optional[int],
    kill_time: Optional[float],
) -> List[Gate]:
    """Outage and its decomposition; only ``serve_leader_kill``."""
    gates = [
        Gate("leader_killed", killed is not None),
        Gate("service_recovered", outage is not None),
    ]
    if kill_time is None:
        return gates
    # Flush start (the member blocks) is the first suspicion; install
    # time minus the blocked duration recovers it from existing telemetry.
    flush_starts, blocked = [], []
    for pid in survivors:
        installs = [v["time"] for v in tails[pid].views if v["view_id"] >= 1]
        hist = records[pid]["telemetry"]["histograms"].get("view_install_s")
        if installs and hist and hist.get("count"):
            blocked.append(hist["max"])
            flush_starts.append(min(installs) - hist["max"])
    detect = min(flush_starts) - kill_time if flush_starts else 0.0
    view_change = max(blocked, default=0.0)
    outcome.layers.update({
        "client.outage_s": outage or 0.0,
        "detector.detect_s": detect,
        "membership.view_change_s": view_change,
        # Each survivor suspecting the dead leader once is the detector
        # working; anything beyond that is a false suspicion.
        "detector.false_suspicions": max(
            0.0, outcome.layers["detector.false_suspicions"] - len(survivors)
        ),
    })
    outcome.notes.append("client.outage_s is one sample per run (n=1)")
    if outage is not None:
        gates.append(Gate(
            "detect_plus_view_change_within_outage",
            detect + view_change <= outage + OUTAGE_SLACK_S,
            f"{detect:.3f} + {view_change:.3f} vs outage {outage:.3f}",
        ))
    return gates


def _request_stages(
    cluster: LiveCluster,
    records: Dict[int, Dict[str, Any]],
    load: loadgen.LoadResult,
    outcome: RunOutcome,
) -> None:
    """queue / replication / apply / respond medians from the existing
    ``trace_requests`` plane (client + node events on one timeline)."""
    t0 = min(record["start_time"] for record in records.values())
    timeline = merge_span_journals(cluster.span_paths, t0=t0)
    timeline.requests.extend(
        rebase_request(event, t0) for event in load.request_events
    )
    timeline.requests.sort(key=request_sort_key)
    if not timeline.requests:
        return
    stages = request_breakdown(timeline.requests).stages
    for stage, name in (
        ("queue", "server.queue_ms"), ("replication", "ring.replication_ms"),
        ("apply", "session.apply_ms"), ("respond", "server.respond_ms"),
    ):
        if stage in stages:
            outcome.layers[name] = stages[stage].p50_s * 1e3


def run_workload(name: str, seed: int, seconds: float, traced: bool = False) -> RunOutcome:
    workload = WORKLOADS[name]
    runner = run_ring if workload.kind == "ring" else run_serve
    return runner(workload, seed, seconds, traced)
