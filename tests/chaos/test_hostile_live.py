"""Hostile-network regression trio against the real TCP runtime.

Three always-on guards for the shaper + adaptive detector stack:

1. Jitter strictly below the adaptive detector's floor causes ZERO
   view changes — the accuracy half of the adaptive-timeout claim.
2. A genuine SIGKILL is still detected within the ceiling while a
   jitter storm is running — the completeness half.
3. Sim/live conformance: the same loss-free ``hostile_network``-style
   schedule, shaped by the simulator's per-link jitter on one side and
   the live ``NetShaper`` on the other, yields the identical delivered
   sequence (single sender: bit-identical total order).
"""

import pytest

from repro import ClusterConfig, FSRConfig, build_cluster
from repro.chaos.campaign import apply_schedule
from repro.chaos.live import LiveChaosConfig, run_live_schedule
from repro.chaos.schedules import FaultEvent, FaultSchedule
from repro.failure.detector import adaptive_floor_s
from repro.live.runner import LiveClusterSpec, run_live_cluster
from repro.types import MessageId
from repro.workloads import KToNPattern, run_workload

pytestmark = [pytest.mark.slow, pytest.mark.live_smoke, pytest.mark.chaos_smoke]

INTERVAL_S = 0.1
TIMEOUT_S = 0.8
FLOOR_S = adaptive_floor_s(INTERVAL_S, TIMEOUT_S)
# Strictly sub-threshold: one delayed heartbeat plus the whole jitter
# magnitude still lands under the adaptive floor.
SUB_JITTER_S = round(0.3 * (FLOOR_S - INTERVAL_S), 4)


def _config():
    return LiveChaosConfig(
        seeds=1,
        scenarios=("hostile_network",),
        n=4,
        t=1,
        senders=1,
        message_bytes=10_000,
        duration_s=2.0,
        fault_window=(0.4, 1.2),
        heartbeat_interval_s=INTERVAL_S,
        heartbeat_timeout_s=TIMEOUT_S,
        max_run_s=25.0,
    )


def _schedule(events, seed=4242):
    return FaultSchedule(
        scenario="hostile_network", seed=seed, n=4, t=1,
        events=tuple(sorted(events, key=lambda e: e.time)),
        detector="heartbeat",
    )


def test_sub_threshold_jitter_causes_no_view_change():
    schedule = _schedule([
        FaultEvent("jitter_burst", 0.4, duration_s=0.8,
                   magnitude=SUB_JITTER_S, note="fabric_jitter"),
        FaultEvent("jitter_burst", 0.5, duration_s=0.5,
                   magnitude=SUB_JITTER_S, link=(0, 1), note="link_jitter"),
    ])
    outcome = run_live_schedule(schedule, _config())
    assert not outcome.failed, outcome.verdict.summary()
    assert not outcome.timed_out
    assert outcome.killed == {}
    # The accuracy claim: nothing was evicted, with or without excuse.
    assert outcome.excluded == []
    assert outcome.false_suspicions == []


def test_sigkill_detected_under_concurrent_jitter():
    schedule = _schedule([
        FaultEvent("jitter_burst", 0.3, duration_s=1.6,
                   magnitude=SUB_JITTER_S, note="jitter_during_recovery"),
        FaultEvent("crash", 0.7, process=2, note="crash_under_jitter"),
    ])
    outcome = run_live_schedule(schedule, _config())
    assert not outcome.failed, outcome.verdict.summary()
    assert not outcome.timed_out
    assert sorted(outcome.killed) == [2]
    # Only the SIGKILLed node left the view: jitter excused nothing.
    assert outcome.excluded == []
    assert outcome.false_suspicions == []
    # Completeness under noise: the survivors noticed the crash and
    # resumed delivering with a bounded outage (ceiling + flush + slack,
    # far under the launcher's run cap).
    assert outcome.outage_ms is not None and outcome.outage_ms > 0.0
    assert outcome.outage_ms <= 3_000.0


MESSAGES = 8
MESSAGE_BYTES = 8_000


def _conformance_schedule():
    return _schedule([
        FaultEvent("jitter_burst", 0.2, duration_s=1.0,
                   magnitude=SUB_JITTER_S, note="fabric_jitter"),
        FaultEvent("jitter_burst", 0.3, duration_s=0.8,
                   magnitude=SUB_JITTER_S, link=(1, 2), note="link_jitter"),
    ], seed=77)


def test_shaped_run_conforms_to_shaped_sim():
    schedule = _conformance_schedule()
    # Live: static membership (nodes stop on the sender's end marker), shaper
    # armed with the schedule's loss-free jitter events.
    live = run_live_cluster(LiveClusterSpec(
        processes=4,
        senders=1,
        t=1,
        message_bytes=MESSAGE_BYTES,
        duration_s=10.0,  # unused: messages_per_sender is the stop rule
        window=2,
        max_run_s=30.0,
        sim_compare=False,
        messages_per_sender=MESSAGES,
        netem_events=[e.to_dict() for e in schedule.netem_events()],
        netem_scenario=schedule.scenario,
        netem_seed=schedule.seed,
        run_seed=schedule.seed,
    ))
    assert live.order_ok, live.order_error
    assert not live.timed_out

    # Sim: identical schedule through the campaign's fault armory.
    cluster = build_cluster(ClusterConfig(
        n=4, protocol="fsr", protocol_config=FSRConfig(t=1),
    ))
    apply_schedule(cluster, schedule)
    sim_result = run_workload(cluster, KToNPattern(
        senders=(0,),
        messages_per_sender=MESSAGES,
        message_bytes=MESSAGE_BYTES,
    )).result

    expected = [MessageId(0, seq) for seq in range(1, MESSAGES + 1)]
    for pid in range(4):
        live_seq = [d.message_id for d in live.result.delivery_logs[pid].deliveries]
        sim_seq = [d.message_id for d in sim_result.delivery_logs[pid].deliveries]
        assert live_seq == expected, f"live node {pid} diverged under jitter"
        assert sim_seq == expected, f"sim node {pid} diverged under jitter"
