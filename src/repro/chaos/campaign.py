"""Campaign runner: N seeded fault schedules, one oracle verdict each.

``run_campaign`` is the subsystem's front door: it generates one
schedule per seed (round-robin over the configured scenarios), drives
each through the full simulated stack via :func:`run_schedule`, judges
the outcome with the invariant oracle, delta-debugs any failing
schedule down to a minimal reproducer, and returns a
:class:`CampaignReport` that serialises to JSON (plus the
``BENCH_chaos.json`` record the perf trajectory tracks).

A campaign is deterministic for a fixed ``base_seed``: schedules derive
from ``(scenario, seed)`` pairs, and every randomised subsystem inside
a run hangs off the cluster's seeded RNG registry.
"""

from __future__ import annotations

import json
import time as _time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.oracle import Verdict, judge_run
from repro.chaos.schedules import (
    DEFAULT_SCENARIOS,
    FaultEvent,
    FaultSchedule,
    ScheduleContext,
    generate_schedule,
)
from repro.chaos.shrink import shrink_schedule
from repro.checker.wire_monitor import attach_wire_monitor
from repro.cluster.config import ClusterConfig
from repro.cluster.harness import Cluster, build_cluster
from repro.cluster.results import ExperimentResult
from repro.core.fsr.config import FSRConfig
from repro.errors import CheckFailure, ConfigurationError, SimulationError
from repro.net.params import NetworkParams
from repro.obs.analyze import worst_gap_ms
from repro.protocols.multiring.config import MultiRingConfig


@dataclass(frozen=True)
class CampaignConfig:
    """Everything one chaos campaign needs.

    The workload and network defaults are tuned so a single run takes a
    fraction of a wall-clock second: traffic saturates a 6-process ring
    for ~0.1 simulated seconds, which is the window the schedule
    generators aim their faults into.
    """

    seeds: int = 50
    base_seed: int = 0
    scenarios: Tuple[str, ...] = DEFAULT_SCENARIOS
    n: int = 6
    t: int = 2
    protocol: str = "fsr"
    #: Ring count for ``protocol="multiring"`` campaigns; ignored for
    #: every other protocol.
    shards: int = 2
    #: Workload: every process broadcasts ``per_sender`` messages of
    #: ``message_bytes`` right after the settle phase.
    per_sender: int = 6
    message_bytes: int = 50_000
    detection_delay_s: float = 20e-3
    #: Attach the FSR wire monitor so structural violations abort the
    #: offending run at the exact send (FSR clusters only).
    wire_monitor: bool = True
    #: Simulated-time liveness budget per run.
    max_time_s: float = 60.0
    settle_s: float = 0.05
    #: Delta-debug failing schedules down to minimal reproducers.
    shrink_failures: bool = True
    #: Maximum oracle re-runs the shrinker may spend per failure.
    shrink_budget: int = 48
    #: Fault window and model knobs handed to the schedule generators.
    window: Tuple[float, float] = (0.06, 0.16)
    flush_window_s: float = 8e-3
    #: Heartbeat bounds for schedules that run a real (message-driven)
    #: detector.  The default timeout is deliberately generous: with the
    #: saturating campaign workload, heartbeats queue behind ~4 ms data
    #: frames and worst-case silences reach ~0.2 s — a timeout near that
    #: false-suspects live peers and (without a quorum) can split
    #: membership.  Scenarios using the oracle ignore these.
    heartbeat_interval_s: float = 10e-3
    heartbeat_timeout_s: float = 0.8
    #: Let generators scope bursts to single directed links.
    link_faults: bool = False

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise ConfigurationError("a campaign needs at least one seed")
        if not self.scenarios:
            raise ConfigurationError("a campaign needs at least one scenario")
        if self.per_sender < 1:
            raise ConfigurationError("per_sender must be positive")

    def schedule_context(self) -> ScheduleContext:
        return ScheduleContext(
            n=self.n,
            t=self.t,
            detection_delay_s=self.detection_delay_s,
            window=self.window,
            flush_window_s=self.flush_window_s,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
            link_faults=self.link_faults,
            shards=self.shards if self.protocol == "multiring" else 1,
        )

    def network_params(self, schedule: FaultSchedule) -> NetworkParams:
        """Fast-calibrated fabric; ARQ forced on when loss is injected."""
        return NetworkParams(
            bandwidth_bps=100e6,
            propagation_delay_s=10e-6,
            cpu_per_message_s=20e-6,
            cpu_per_byte_s=5e-9,
            retransmit_timeout_s=10e-3,
            force_reliable=schedule.needs_arq(),
        )


# ----------------------------------------------------------------------
# Single-run execution
# ----------------------------------------------------------------------

def _schedule_block(sim, net, src, dst, start: float, end: float) -> None:
    sim.schedule_at(start, net.set_link_blocked, src, dst, True)
    sim.schedule_at(end, net.set_link_blocked, src, dst, False)


def apply_schedule(cluster: Cluster, schedule: FaultSchedule) -> None:
    """Arm every fault of ``schedule`` on a built (unstarted ok) cluster."""
    sim, net = cluster.sim, cluster.network
    for event in schedule.events:
        end = event.time + event.duration_s
        if event.kind == "crash":
            cluster.schedule_crash(event.process, event.time)
        elif event.kind == "loss_burst":
            if event.link is not None:
                src, dst = event.link
                sim.schedule_at(
                    event.time, net.set_link_loss, src, dst, event.magnitude
                )
                sim.schedule_at(end, net.set_link_loss, src, dst, None)
            else:
                sim.schedule_at(
                    event.time, net.set_loss_override, event.magnitude
                )
                sim.schedule_at(end, net.set_loss_override, None)
        elif event.kind == "jitter_burst":
            if event.link is not None:
                src, dst = event.link
                sim.schedule_at(
                    event.time, net.set_link_extra_jitter, src, dst,
                    event.magnitude,
                )
                sim.schedule_at(end, net.set_link_extra_jitter, src, dst, 0.0)
            else:
                sim.schedule_at(event.time, net.set_extra_jitter, event.magnitude)
                sim.schedule_at(end, net.set_extra_jitter, 0.0)
        elif event.kind == "asym_loss":
            src, dst = event.link
            sim.schedule_at(
                event.time, net.set_link_loss, src, dst, event.magnitude
            )
            sim.schedule_at(end, net.set_link_loss, src, dst, None)
        elif event.kind == "partition":
            group = set(event.group or ())
            others = [p for p in range(schedule.n) if p not in group]
            for a in sorted(group):
                for b in others:
                    _schedule_block(sim, net, a, b, event.time, end)
                    _schedule_block(sim, net, b, a, event.time, end)
        elif event.kind == "partial_partition":
            a, b = event.link
            _schedule_block(sim, net, a, b, event.time, end)
            _schedule_block(sim, net, b, a, event.time, end)
        elif event.kind == "bandwidth_cap":
            raise ConfigurationError(
                "bandwidth_cap is live-only (the simulator models link "
                "rate via NetworkParams.bandwidth_bps)"
            )
        elif event.kind == "cpu_slow":
            sim.schedule_at(
                event.time, net.set_cpu_scale, event.process, event.magnitude
            )
            sim.schedule_at(
                event.time + event.duration_s, net.set_cpu_scale, event.process, 1.0
            )
        else:  # pragma: no cover - FaultEvent validates kinds
            raise ConfigurationError(f"unknown fault kind {event.kind!r}")


def run_schedule(
    schedule: FaultSchedule, config: Optional[CampaignConfig] = None
) -> Tuple[Verdict, ExperimentResult]:
    """Execute one fault schedule end to end and judge it.

    Builds a fresh cluster seeded from the schedule, attaches the wire
    monitor, submits the standard saturating workload, arms the faults,
    runs until the liveness predicate holds (or the budget expires), and
    returns the oracle's verdict together with the frozen result.
    """
    cfg = config if config is not None else CampaignConfig()
    if cfg.protocol == "fsr":
        protocol_config = FSRConfig(t=schedule.t)
    elif cfg.protocol == "multiring":
        protocol_config = MultiRingConfig(
            shards=cfg.shards, fsr=FSRConfig(t=schedule.t)
        )
    else:
        protocol_config = None
    cluster_config = ClusterConfig(
        n=schedule.n,
        protocol=cfg.protocol,
        protocol_config=protocol_config,
        network=cfg.network_params(schedule),
        seed=schedule.seed,
        detector=schedule.detector,
        detection_delay_s=cfg.detection_delay_s,
        heartbeat_interval_s=cfg.heartbeat_interval_s,
        heartbeat_timeout_s=cfg.heartbeat_timeout_s,
        # Any run with a real (message-driven) detector can false-suspect
        # under pathological silence, and partitions make suspicion
        # symmetric; the primary-partition guard keeps a minority from
        # installing its own view and splitting the sequence.
        require_quorum=schedule.detector != "oracle",
    )
    cluster = build_cluster(cluster_config)
    if cfg.wire_monitor:
        attach_wire_monitor(cluster)

    cluster.start()
    # Arm faults at time zero: generated schedules aim inside the
    # traffic window, but shrunk candidates may round a fault into the
    # settle phase, and those must replay rather than error out.
    apply_schedule(cluster, schedule)
    cluster.run(until=cfg.settle_s)
    for pid in range(schedule.n):
        if cluster.network.is_crashed(pid):
            continue  # crashed during settle (shrunk schedules only)
        for _ in range(cfg.per_sender):
            cluster.broadcast(pid, size_bytes=cfg.message_bytes)

    planned_crashes = {e.process for e in schedule.crashes()}
    # A long-lived full partition strands its minority outside the
    # primary component: those processes stop delivering (like crashed
    # ones) and the liveness obligation falls on the majority alone.
    casualties = (
        set(schedule.partition_casualties(cluster_config.heartbeat_timeout_s))
        - planned_crashes
    )
    excluded = planned_crashes | casualties
    survivors = [p for p in range(schedule.n) if p not in excluded]
    expected = cfg.per_sender * len(survivors)

    def drained() -> bool:
        return all(
            sum(
                1
                for d in cluster.nodes[p].app_deliveries
                if d.origin not in excluded
            ) >= expected
            for p in survivors
        )

    wire_error: Optional[str] = None
    run_error: Optional[str] = None
    completed = False
    try:
        cluster.run_until(drained, step_s=0.02, max_time_s=cfg.max_time_s)
        # Settle: let trailing acks/flushes land before judging.
        cluster.run(until=cluster.sim.now + 2 * cfg.detection_delay_s + 0.05)
        completed = True
    except CheckFailure as failure:  # wire monitor abort
        wire_error = str(failure)
    except SimulationError:  # liveness budget expired
        completed = False
    except Exception as error:  # pragma: no cover - defensive
        run_error = f"{type(error).__name__}: {error}"

    result = cluster.results()
    # Partition casualties are judged like crashed processes (their log
    # must be a consistent prefix, but they owe no further deliveries);
    # mark them at end-of-run, the same convention the live campaign
    # uses for view-excluded survivors.
    for pid in sorted(casualties):
        if pid not in result.crashed:
            result.crashed[pid] = result.duration_s
    verdict = judge_run(
        result,
        drained=completed,
        wire_error=wire_error,
        run_error=run_error,
        expected_unsound=schedule.fd_unsound,
    )
    return verdict, result


def recovery_outage_ms(
    result: ExperimentResult, crash_times: Sequence[float]
) -> Optional[float]:
    """Worst survivor delivery gap straddling any of ``crash_times``
    (the instants of the crashes that actually executed), in ms.

    ``None`` when nobody crashed (or no survivor delivered on both
    sides of a crash instant).
    """
    return worst_gap_ms(
        (
            [d.time for d in result.delivery_logs[process].deliveries]
            for process in result.correct_processes()
        ),
        crash_times,
    )


# ----------------------------------------------------------------------
# Campaign loop + report
# ----------------------------------------------------------------------

@dataclass
class SeedOutcome:
    """One seed's schedule, verdict, and diagnostics."""

    seed: int
    scenario: str
    schedule: FaultSchedule
    verdict: Verdict
    sim_duration_s: float
    wall_s: float
    outage_ms: Optional[float] = None
    #: Shrunk reproducer, present only for gating (sound) failures.
    minimal: Optional[FaultSchedule] = None

    @property
    def failed(self) -> bool:
        """True when this seed gates the campaign red."""
        return not self.verdict.ok and not self.verdict.expected_unsound

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "scenario": self.scenario,
            "schedule": self.schedule.to_dict(),
            "verdict": self.verdict.to_dict(),
            "sim_duration_s": round(self.sim_duration_s, 6),
            "wall_s": round(self.wall_s, 3),
            "outage_ms": None if self.outage_ms is None else round(self.outage_ms, 3),
        }
        if self.minimal is not None:
            out["minimal_reproducer"] = self.minimal.to_dict()
        return out

    def tallies(self) -> Dict[str, int]:
        """Per-seed counts the report sums per scenario (none here)."""
        return {}


@dataclass
class CampaignReport:
    """Everything a finished campaign leaves behind — simulated or live.

    ``outcomes`` are :class:`SeedOutcome`\\ s or
    :class:`~repro.chaos.live.LiveSeedOutcome`\\ s; the report reads
    only what both have (``scenario``, ``verdict``, ``failed``,
    ``outage_ms``, ``tallies()``, ``to_dict()``).
    """

    config: Any
    #: The ``bench`` name of :meth:`bench_record`.
    bench: str = "chaos_campaign"
    outcomes: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> List[Any]:
        return [o for o in self.outcomes if o.failed]

    @property
    def unsound_outcomes(self) -> List[Any]:
        return [o for o in self.outcomes if o.verdict.expected_unsound]

    def mean_outage_ms(self) -> Optional[float]:
        outages = [o.outage_ms for o in self.outcomes if o.outage_ms is not None]
        if not outages:
            return None
        return sum(outages) / len(outages)

    def scenario_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-scenario seeds / failures / tallies / outage rollup (the
        recovery numbers the benchmark record reports per scenario)."""
        rollup: Dict[str, Dict[str, object]] = {}
        for outcome in self.outcomes:
            row = rollup.setdefault(
                outcome.scenario, {"seeds": 0, "failures": 0, "outages": []}
            )
            row["seeds"] += 1
            if outcome.failed:
                row["failures"] += 1
            for name, count in outcome.tallies().items():
                row[name] = row.get(name, 0) + count
            if outcome.outage_ms is not None:
                row["outages"].append(outcome.outage_ms)
        for row in rollup.values():
            outages = row.pop("outages")
            row["mean_outage_ms"] = (
                round(sum(outages) / len(outages), 3) if outages else None
            )
            row["max_outage_ms"] = (
                round(max(outages), 3) if outages else None
            )
        return rollup

    def fingerprint(self) -> List[Tuple[int, str, bool, float]]:
        """Wall-clock-free digest for determinism assertions (simulated
        campaigns only: a live outcome has no ``sim_duration_s``)."""
        return [
            (o.seed, o.scenario, o.verdict.ok, round(o.sim_duration_s, 9))
            for o in self.outcomes
        ]

    def _summary(self) -> Dict[str, object]:
        totals: Counter = Counter()
        for outcome in self.outcomes:
            totals.update(outcome.tallies())  # keeps a zero tally's key
        mean = self.mean_outage_ms()
        return {
            "seeds_run": len(self.outcomes),
            "failures": len(self.failures),
            "unsound_runs": len(self.unsound_outcomes),
            **totals,
            "mean_recovery_outage_ms": None if mean is None else round(mean, 3),
            "scenarios": self.scenario_summary(),
        }

    def bench_record(self) -> Dict[str, object]:
        """The ``--bench`` payload: the campaign without its outcomes."""
        return {"bench": self.bench, **self._summary()}

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": asdict(self.config),
            "ok": self.ok,
            **self._summary(),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def write_json(self, path) -> None:
        _write_json(path, self.to_dict())

    def write_bench(self, path) -> None:
        _write_json(path, self.bench_record())


def _write_json(path, payload: Dict[str, object]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def run_seeds(
    config: Any,
    run_seed: Callable[[FaultSchedule], Any],
    bench: str,
    progress: Optional[Callable[[Any], None]] = None,
) -> CampaignReport:
    """The campaign loop, simulated or live: seed → scenario → schedule
    → ``run_seed(schedule)`` → report.

    Scenarios go round-robin over the seeds and a schedule derives from
    ``(scenario, seed)`` alone, so a failing live seed can be replayed
    on the simulator with the same schedule.  ``progress`` is invoked
    once per finished seed (the CLI uses it for live output).
    """
    ctx = config.schedule_context()
    report = CampaignReport(config=config, bench=bench)
    for index in range(config.seeds):
        scenario = config.scenarios[index % len(config.scenarios)]
        schedule = generate_schedule(scenario, config.base_seed + index, ctx)
        outcome = run_seed(schedule)
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return report


def config_from(cls, config, overrides):
    """A prebuilt config object, or ``cls(**overrides)`` — not both."""
    if config is not None and overrides:
        raise ConfigurationError("pass either a config object or overrides, not both")
    return config if config is not None else cls(**overrides)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    progress: Optional[Callable[[SeedOutcome], None]] = None,
    **overrides,
) -> CampaignReport:
    """Run a full chaos campaign and return its report.

    Either pass a prebuilt :class:`CampaignConfig` or keyword overrides
    for one (``run_campaign(seeds=200, t=2)``).
    """
    cfg = config_from(CampaignConfig, config, overrides)

    def run_seed(schedule: FaultSchedule) -> SeedOutcome:
        started = _time.perf_counter()
        verdict, result = run_schedule(schedule, cfg)
        outcome = SeedOutcome(
            seed=schedule.seed,
            scenario=schedule.scenario,
            schedule=schedule,
            verdict=verdict,
            sim_duration_s=result.duration_s,
            wall_s=_time.perf_counter() - started,
            outage_ms=recovery_outage_ms(result, [
                e.time for e in schedule.crashes() if e.process in result.crashed
            ]),
        )
        if outcome.failed and cfg.shrink_failures:
            outcome.minimal = shrink_schedule(
                schedule,
                lambda candidate: not run_schedule(candidate, cfg)[0].ok,
                budget=cfg.shrink_budget,
            )
        return outcome

    return run_seeds(cfg, run_seed, "chaos_campaign", progress)
