"""Live chaos campaigns: real SIGKILLs against a real TCP cluster.

The simulator campaign (:mod:`repro.chaos.campaign`) injects crashes by
silencing a simulated NIC.  This driver runs the *same* seeded
:class:`~repro.chaos.schedules.FaultSchedule`\\ s against the asyncio
runtime: it spawns one ``live-node`` OS process per FSR process via
:class:`~repro.live.runner.LiveCluster` (live membership enabled — a
heartbeat failure detector and ``GroupMembership``'s flush/install
protocol run over the transport's control plane), then delivers each
scheduled crash as a genuine ``SIGKILL`` at its fault time.

Verification is the same invariant battery the simulator campaign uses
(:func:`repro.chaos.oracle.judge_run`, which wraps
``checker.order.check_all``) applied to the merged per-node logs.  The
twist is the killed nodes: a SIGKILLed process cannot report its
deliveries, so every node journals broadcasts and deliveries to an
append-and-flush JSONL file as they happen; the journal survives the
kill and stands in for the node's record.  Without it, uniform
integrity ("only broadcast messages are delivered") and uniformity
("anything a crashed node delivered, every survivor delivers") would be
unverifiable exactly where they matter.

Timebase: every node stamps events with ``CLOCK_MONOTONIC``, which on
Linux is system-wide, so the parent's ``time.monotonic()`` kill
timestamps land on the same axis as the nodes' logs and the standard
``recovery_outage_ms`` metric applies unchanged.

Crash scenarios are portable directly; network-degradation scenarios
(``degraded_network``, ``hostile_network``) are portable through the
egress :class:`~repro.chaos.netem.NetShaper` each node arms at protocol
start — the launcher passes the schedule's link-level events into every
node's config, and the shaper imposes delay/jitter, synthetic loss,
bandwidth caps, and partitions on the real TCP traffic.  Shaped runs
switch the failure detector to the adaptive (EWMA) variant and turn on
membership's primary-partition guard, and the battery additionally
checks that no *survivor* was evicted without an excuse: an eviction
that is neither a SIGKILL nor an expected partition casualty is a false
suspicion and fails the seed.  CPU-slow events stay simulator-only.
The schedule's ``detector`` field is otherwise ignored: a live run
always runs a real detector, because there is no oracle to whisper
crash times.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.campaign import (
    CampaignReport,
    config_from,
    recovery_outage_ms,
    run_seeds,
)
from repro.chaos.oracle import Verdict, Violation, judge_run
from repro.chaos.schedules import FaultSchedule, ScheduleContext
from repro.errors import ConfigurationError, NetworkError
from repro.live.runner import LiveCluster, LiveClusterSpec, merge_node_records
from repro.obs.analyze import recovery_outage_from_spans
from repro.obs.journal import Timeline
from repro.types import ProcessId

#: Scenarios portable to the live runtime: crash scenarios directly,
#: network-degradation scenarios via the egress shaper.
LIVE_SCENARIOS: Tuple[str, ...] = (
    "crash_storm",
    "role_targeted",
    "view_change_crossfire",
    "repeated_leader_crash",
    "degraded_network",
    "hostile_network",
)

#: Scenarios whose schedules carry link-level events the shaper enforces.
_NETEM_SCENARIOS = ("degraded_network", "hostile_network")

#: How often the parent-side quiescence monitor samples journals.
_QUIESCE_POLL_S = 0.05
#: Extra wait past the last kill before quiescence may be declared, on
#: top of the heartbeat timeout: one flush.  A SIGKILL is suspected in
#: milliseconds from the refused port (DESIGN.md §5c), so this is no
#: longer how long detection takes — it stays the bound for the case
#: the evidence does not fire and the timeout has to, and it leaves the
#: final view change (whose recovery propagates the last stability
#: watermark to laggards, over links that may be shaped) time to run
#: before nodes are stopped.
_DETECTION_SLACK_S = 0.6


@dataclass(frozen=True)
class LiveChaosConfig:
    """Everything one live chaos campaign needs.

    Defaults are sized for a localhost cluster: real processes, real
    sockets, ~1 s failure detection — so the fault window and flush
    window are three orders of magnitude wider than the simulator
    campaign's, and the seed count is smaller because each run costs
    seconds of wall clock, not milliseconds.
    """

    seeds: int = 25
    base_seed: int = 0
    scenarios: Tuple[str, ...] = ("crash_storm", "repeated_leader_crash")
    n: int = 5
    t: int = 2
    senders: int = 2
    message_bytes: int = 20_000
    window: int = 2
    #: Senders stop submitting this long after the start barrier.
    duration_s: float = 2.5
    settle_s: float = 0.3
    quiet_s: float = 0.6
    max_run_s: float = 30.0
    connect_timeout_s: float = 10.0
    host: str = "127.0.0.1"
    heartbeat_interval_s: float = 0.1
    heartbeat_timeout_s: float = 1.0
    #: Wall-clock window (seconds after the last node's start barrier)
    #: the generators aim faults into; inside ``duration_s`` so kills
    #: land under load.
    fault_window: Tuple[float, float] = (0.4, 1.6)
    #: Approximate live flush duration handed to the generators.
    flush_window_s: float = 0.3
    #: Detector for crash-only scenarios ("heartbeat" or "adaptive").
    #: Shaped (netem) scenarios always run ``shaped_detector_mode``:
    #: their generators bound sub-threshold faults against the adaptive
    #: floor, and the false-suspicion gate below is the claim under test.
    detector_mode: str = "heartbeat"
    #: Detector for shaped (netem) runs.  "adaptive" is the claim under
    #: test; "heartbeat" exists for the EXPERIMENTS.md ablation that
    #: counts a fixed bound's false suspicions under the same noise.
    shaped_detector_mode: str = "adaptive"

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ConfigurationError("a campaign needs at least one seed")
        if not self.scenarios:
            raise ConfigurationError("a campaign needs at least one scenario")
        for scenario in self.scenarios:
            if scenario not in LIVE_SCENARIOS:
                raise ConfigurationError(
                    f"scenario {scenario!r} is not live-portable; live "
                    f"campaigns support: {', '.join(LIVE_SCENARIOS)}"
                )
        if self.n - self.t < 2:
            raise ConfigurationError(
                "live chaos needs n - t >= 2 so a ring survives worst case"
            )
        if not 1 <= self.senders <= self.n:
            raise ConfigurationError(
                f"senders={self.senders} out of range for n={self.n}"
            )
        if not self.fault_window[0] < self.fault_window[1] <= self.duration_s:
            raise ConfigurationError(
                "fault_window must be inside the traffic window "
                "(0, duration_s]"
            )
        if self.max_run_s < self.duration_s + self.heartbeat_timeout_s + 8.0:
            raise ConfigurationError(
                "max_run_s too tight: needs duration_s + detection + "
                "shutdown headroom"
            )
        for mode in (self.detector_mode, self.shaped_detector_mode):
            if mode not in ("heartbeat", "adaptive"):
                raise ConfigurationError(
                    f"unknown detector mode {mode!r}; "
                    "use 'heartbeat' or 'adaptive'"
                )
        if any(s in _NETEM_SCENARIOS for s in self.scenarios):
            # Shaped runs enable the primary-partition guard, which
            # only ever installs strict-majority views — so the t-kill
            # worst case must still leave a majority standing.
            if 2 * (self.n - self.t) <= self.n:
                raise ConfigurationError(
                    "netem scenarios need 2*(n - t) > n: the quorum "
                    "guard must be satisfiable after t kills"
                )

    def schedule_context(self) -> ScheduleContext:
        return ScheduleContext(
            n=self.n,
            t=self.t,
            detection_delay_s=self.heartbeat_timeout_s,
            window=self.fault_window,
            flush_window_s=self.flush_window_s,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            # Bias degradations toward single directed links (a flaky
            # cable, not weather): cluster-wide bursts stay possible,
            # and the shaper applies those to every egress link.
            link_faults=True,
        )

    def cluster_spec(
        self, schedule: Optional[FaultSchedule] = None
    ) -> LiveClusterSpec:
        netem = tuple(schedule.netem_events()) if schedule is not None else ()
        return LiveClusterSpec(
            processes=self.n,
            senders=self.senders,
            t=self.t,
            message_bytes=self.message_bytes,
            duration_s=self.duration_s,
            window=self.window,
            host=self.host,
            settle_s=self.settle_s,
            quiet_s=self.quiet_s,
            max_run_s=self.max_run_s,
            connect_timeout_s=self.connect_timeout_s,
            sim_compare=False,
            view_changes=True,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            detector_mode=(
                self.shaped_detector_mode if netem else self.detector_mode
            ),
            netem_events=[e.to_dict() for e in netem],
            netem_scenario=schedule.scenario if schedule is not None else "",
            netem_seed=schedule.seed if schedule is not None else 0,
            run_seed=schedule.seed if schedule is not None else 0,
            # The guard is what keeps a partitioned minority from
            # installing its own view and splitting the sequence; only
            # needed when links can actually partition.
            require_quorum=bool(netem),
            # Span journals survive SIGKILL like the event journals do,
            # and the recovery-outage metric is read off the merged span
            # timeline rather than ad-hoc per-scenario timing.
            spans=True,
        )


# ----------------------------------------------------------------------
# Single-schedule execution
# ----------------------------------------------------------------------

def _await_quiescence(
    cluster: LiveCluster,
    cfg: LiveChaosConfig,
    base: float,
    netem_end_s: float = 0.0,
) -> bool:
    """Block until the surviving cluster looks done; True on timeout.

    Survivor nodes never self-exit under live membership (a locally
    silent ring can hide an undetected crash whose view change is still
    pending), so the launcher decides: the run is quiescent once the
    traffic deadline has passed, every executed kill has had time to be
    detected and flushed (heartbeat timeout + interval + slack), and no
    survivor journal has grown for ``quiet_s``.  Journals record every
    broadcast, delivery, and view install — exactly the events whose
    absence means the run drained.
    """
    detection_s = (
        cfg.heartbeat_timeout_s + cfg.heartbeat_interval_s + _DETECTION_SLACK_S
    )
    kills = cluster.killed
    ready_at = base + cfg.duration_s
    if kills:
        ready_at = max(ready_at, max(kills.values()) + detection_s)
    if netem_end_s > 0.0:
        # A shaped run is not judged mid-storm: a healing partition
        # still has a detection-plus-flush tail (evictions, backlog
        # release) before the cluster can genuinely drain.
        ready_at = max(ready_at, base + netem_end_s + detection_s)
    cutoff = base + cfg.max_run_s - 5.0
    survivors = [pid for pid in cluster.members if pid not in kills]
    last_sizes: Dict[ProcessId, int] = {}
    last_growth = time.monotonic()
    while True:
        now = time.monotonic()
        if now >= cutoff:
            return True
        sizes = {}
        for pid in survivors:
            try:
                sizes[pid] = os.path.getsize(cluster.journal_paths[pid])
            except OSError:
                sizes[pid] = -1
        if sizes != last_sizes:
            last_sizes = sizes
            last_growth = now
        if now >= ready_at and now - last_growth >= cfg.quiet_s:
            return False
        time.sleep(_QUIESCE_POLL_S)


@dataclass
class LiveSeedOutcome:
    """One live seed's schedule, verdict, and diagnostics."""

    seed: int
    scenario: str
    schedule: FaultSchedule
    verdict: Verdict
    wall_s: float
    outage_ms: Optional[float] = None
    #: Actual (rebased) kill time per SIGKILLed node.
    killed: Dict[ProcessId, float] = field(default_factory=dict)
    #: Survivors the final view excluded (treated as crashed by the
    #: battery: view-synchrony makes no promises to the evicted).
    excluded: List[ProcessId] = field(default_factory=list)
    #: Excluded survivors that were neither SIGKILLed nor the minority
    #: side of a long partition — i.e. evictions the failure detector
    #: had no excuse for.  Any entry fails the seed.
    false_suspicions: List[ProcessId] = field(default_factory=list)
    #: Minority members of partitions long enough to be detected; their
    #: eviction is the *correct* outcome, not a false suspicion.
    expected_casualties: List[ProcessId] = field(default_factory=list)
    timed_out: bool = False

    @property
    def failed(self) -> bool:
        if self.false_suspicions:
            return True
        return not self.verdict.ok and not self.verdict.expected_unsound

    def tallies(self) -> Dict[str, int]:
        """Per-seed counts the report sums per scenario and overall."""
        return {
            "kills": len(self.killed),
            "false_suspicions": len(self.false_suspicions),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "schedule": self.schedule.to_dict(),
            "verdict": self.verdict.to_dict(),
            "wall_s": round(self.wall_s, 3),
            "outage_ms": (
                None if self.outage_ms is None else round(self.outage_ms, 3)
            ),
            "killed": {
                str(pid): round(at, 4) for pid, at in sorted(self.killed.items())
            },
            "excluded": list(self.excluded),
            "false_suspicions": list(self.false_suspicions),
            "expected_casualties": list(self.expected_casualties),
            "timed_out": self.timed_out,
        }


def run_live_schedule(
    schedule: FaultSchedule, config: Optional[LiveChaosConfig] = None
) -> LiveSeedOutcome:
    """Execute one fault schedule against a real localhost cluster."""
    cfg = config if config is not None else LiveChaosConfig()
    spec = cfg.cluster_spec(schedule)
    started_wall = time.perf_counter()
    crashes = sorted(schedule.crashes(), key=lambda e: e.time)
    netem_end_s = max(
        (e.time + e.duration_s for e in schedule.netem_events()), default=0.0
    )

    run_error: Optional[str] = None
    parent_timeout = False
    records: Dict[ProcessId, Dict[str, object]] = {}
    timeline: Optional[Timeline] = None
    with LiveCluster.launch(spec, journals=True) as cluster:
        try:
            starts = cluster.await_started(
                spec.connect_timeout_s + spec.settle_s + 15.0
            )
            base = max(starts.values())
            for event in crashes:
                delay = base + event.time - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                cluster.kill(event.process)
            parent_timeout = _await_quiescence(
                cluster, cfg, base, netem_end_s=netem_end_s
            )
            # Killed nodes' flushed journals stand in for their records;
            # span journals (all nodes, killed included) merge on the
            # same rebase origin the record merger uses.
            records = cluster.stop()
            timeline = cluster.timeline(records)
        except NetworkError as error:
            run_error = f"{type(error).__name__}: {error}"

    kills = cluster.killed
    survivors = sorted(set(cluster.members) - set(kills))
    crashed_times = dict(kills)
    excluded: List[ProcessId] = []
    final_views = [
        records[pid].get("final_view")
        for pid in survivors
        if pid in records and records[pid].get("final_view")
    ]
    if final_views:
        latest = max(final_views, key=lambda view: view["view_id"])
        for pid in survivors:
            if pid in records and pid not in latest["members"]:
                excluded.append(pid)
                crashed_times[pid] = records[pid]["end_time"]
    # An eviction needs an excuse: a SIGKILL (not in ``excluded`` by
    # construction) or membership on the minority side of a partition
    # long enough for detection.  Anything else is a false suspicion —
    # the adaptive detector's timeout was beaten by sub-threshold noise.
    expected_casualties = sorted(
        set(schedule.partition_casualties(cfg.heartbeat_timeout_s))
        - set(kills)
    )
    false_suspicions = sorted(set(excluded) - set(expected_casualties))
    timed_out = parent_timeout or any(
        records[pid].get("timed_out", False)
        for pid in survivors
        if pid in records
    )

    result = None
    if records:
        try:
            result, _ = merge_node_records(spec, records, crashed=crashed_times)
        except NetworkError as error:
            run_error = run_error or f"{type(error).__name__}: {error}"
    if result is not None:
        drained = run_error is None and not timed_out
        verdict = judge_run(
            result,
            drained=drained,
            run_error=run_error,
            expected_unsound=schedule.fd_unsound,
        )
        killed_rebased = {
            pid: max(0.0, result.crashed[pid]) for pid in kills
        }
        # Outage is measured against the *executed* kills at their
        # actual (rebased) times, not the planned instants — read off
        # the span timeline, the same lifecycle record every other
        # report uses.  The delivery-log path stays as a fallback for
        # runs whose span journals were lost.
        crash_times = sorted(killed_rebased.values())
        if timeline is not None and timeline.events:
            outage_ms = recovery_outage_from_spans(
                timeline, crash_times, survivors=result.correct_processes()
            )
        else:
            outage_ms = recovery_outage_ms(result, crash_times)
    else:
        verdict = Verdict(
            ok=False,
            violations=[Violation(
                "run", run_error or "no node produced any record"
            )],
            expected_unsound=schedule.fd_unsound,
        )
        outage_ms = None
        killed_rebased = {}

    return LiveSeedOutcome(
        seed=schedule.seed,
        scenario=schedule.scenario,
        schedule=schedule,
        verdict=verdict,
        wall_s=time.perf_counter() - started_wall,
        outage_ms=outage_ms,
        killed=killed_rebased,
        excluded=excluded,
        false_suspicions=false_suspicions,
        expected_casualties=expected_casualties,
        timed_out=timed_out,
    )


def run_live_campaign(
    config: Optional[LiveChaosConfig] = None,
    progress: Optional[Callable[[LiveSeedOutcome], None]] = None,
    **overrides,
) -> CampaignReport:
    """Run a live chaos campaign and return its report.

    The loop, the seed-to-schedule mapping and the report are the
    simulator campaign's (:func:`repro.chaos.campaign.run_seeds`); only
    the per-seed runner differs.
    """
    cfg = config_from(LiveChaosConfig, config, overrides)
    return run_seeds(
        cfg,
        lambda schedule: run_live_schedule(schedule, cfg),
        "chaos_live_campaign",
        progress,
    )
