"""Chaos campaigns: randomized fault schedules, invariant gating, and
failing-schedule minimization.

The paper's correctness claims (uniform total order under any ``<= t``
crashes, §4.2.1) live or die on compound-fault recovery behaviour, not
the steady state.  This package searches that fault space:

* :mod:`repro.chaos.schedules` — seeded, model-aware generators that
  compose crash storms, role-targeted kills, crashes inside view-change
  windows, repeated leader assassination, and bounded network/host
  degradations (plus an opt-in mode that violates the perfect-FD
  assumption to document what breaks);
* :mod:`repro.chaos.campaign` — drives N seeded runs through the
  cluster harness and judges each with the full invariant oracle; its
  loop and its :class:`CampaignReport` serve the live campaign too;
* :mod:`repro.chaos.live` — drives the *same* seeded schedules against
  a real localhost cluster (one OS process per node, asyncio TCP),
  delivering crashes as genuine ``SIGKILL``\\ s and judging the merged
  crash-surviving journals with the same oracle;
* :mod:`repro.chaos.oracle` — safety (validity, agreement, integrity,
  total order, uniformity, wire invariants) plus liveness (the run
  drains) as one verdict;
* :mod:`repro.chaos.shrink` — delta-debugging of failing schedules into
  minimal reproducers fit for regression tests.

Quickstart::

    from repro.chaos import CampaignConfig, run_campaign
    report = run_campaign(CampaignConfig(seeds=50))
    assert report.ok, report.failures[0].verdict.summary()

or from the command line: ``python -m repro chaos --seeds 50``
(simulator) / ``python -m repro chaos --live`` (real SIGKILLs).
"""

from repro.chaos.campaign import (
    CampaignConfig,
    CampaignReport,
    SeedOutcome,
    apply_schedule,
    recovery_outage_ms,
    run_campaign,
    run_schedule,
)
from repro.chaos.live import (
    LIVE_SCENARIOS,
    LiveChaosConfig,
    LiveSeedOutcome,
    run_live_campaign,
    run_live_schedule,
)
from repro.chaos.oracle import Verdict, Violation, judge_run
from repro.chaos.schedules import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    UNSOUND_SCENARIOS,
    FaultEvent,
    FaultSchedule,
    ScheduleContext,
    generate_schedule,
)
from repro.chaos.shrink import shrink_schedule

__all__ = [
    "CampaignConfig",
    "CampaignReport",
    "DEFAULT_SCENARIOS",
    "FaultEvent",
    "FaultSchedule",
    "LIVE_SCENARIOS",
    "LiveChaosConfig",
    "LiveSeedOutcome",
    "run_live_campaign",
    "run_live_schedule",
    "SCENARIOS",
    "ScheduleContext",
    "SeedOutcome",
    "UNSOUND_SCENARIOS",
    "Verdict",
    "Violation",
    "apply_schedule",
    "generate_schedule",
    "judge_run",
    "recovery_outage_ms",
    "run_campaign",
    "run_schedule",
    "shrink_schedule",
]
