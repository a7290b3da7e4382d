"""Profiling hooks: lag sampler, CPU accountant, stack sampler.

The lag sampler runs on a real asyncio loop through the node's
AsyncioScheduler; the accountant's CPU/wall split is checked with a
sleep (wall advances, CPU barely) and a spin (both advance); the
sampling profiler must catch a busy loop inside the busy function.
"""

import asyncio
import os
import time

from repro.live.scheduler import AsyncioScheduler
from repro.obs.profile import CpuAccountant, EventLoopLagSampler, SamplingProfiler
from repro.obs.telemetry import Telemetry


def test_lag_sampler_ticks_and_publishes_gauges():
    telemetry = Telemetry()

    async def scenario():
        sched = AsyncioScheduler(asyncio.get_running_loop())
        sampler = EventLoopLagSampler(sched, telemetry, interval_s=0.02)
        sampler.start()
        await asyncio.sleep(0.15)
        sampler.stop()
        ticking = sampler.samples
        await asyncio.sleep(0.06)
        return ticking, sampler.samples

    ticking, after_stop = asyncio.run(scenario())
    assert ticking >= 3
    assert after_stop == ticking  # stop() really cancels the timer
    snapshot = telemetry.snapshot()
    assert "event_loop_lag_s" in snapshot["gauges"]
    assert "cpu_busy_fraction" in snapshot["gauges"]
    assert snapshot["histograms"]["event_loop_lag_s"]["count"] == ticking
    # An idle loop's scheduling lag is small; saturation would show here.
    assert snapshot["gauges"]["event_loop_lag_s"]["value"] < 0.05


def test_lag_sampler_sees_a_blocked_loop():
    telemetry = Telemetry()

    async def scenario():
        sched = AsyncioScheduler(asyncio.get_running_loop())
        sampler = EventLoopLagSampler(sched, telemetry, interval_s=0.01)
        sampler.start()
        await asyncio.sleep(0.02)
        time.sleep(0.1)  # block the loop: the next tick fires late
        await asyncio.sleep(0.02)
        sampler.stop()

    asyncio.run(scenario())
    worst = telemetry.snapshot()["histograms"]["event_loop_lag_s"]["max"]
    assert worst > 0.05


def test_cpu_accountant_separates_cpu_from_wall():
    acct = CpuAccountant()
    spin = acct.stage("spin")
    for _ in range(3):
        with spin:
            t0 = time.thread_time()
            while time.thread_time() - t0 < 0.01:
                pass
    with acct.stage("wait"):
        time.sleep(0.05)
    totals = acct.totals()
    assert totals["spin"]["count"] == 3
    assert totals["spin"]["cpu_s"] >= 0.02
    assert totals["wait"]["count"] == 1
    assert totals["wait"]["wall_s"] >= 0.04
    # Sleeping burns wall time, not CPU: the split is the whole point.
    assert totals["wait"]["cpu_s"] < totals["wait"]["wall_s"] / 2
    # stage() returns the same accumulating span object each time.
    assert acct.stage("spin") is spin


def test_cpu_accountant_publishes_stage_gauges():
    acct = CpuAccountant()
    with acct.stage("decode"):
        pass
    telemetry = Telemetry()
    acct.publish(telemetry)
    gauges = telemetry.snapshot()["gauges"]
    assert "cpu_stage_decode_s" in gauges
    assert "wall_stage_decode_s" in gauges
    assert gauges["stage_decode_count"]["value"] == 1.0


def _busy_marker_function(deadline: float) -> None:
    while time.perf_counter() < deadline:
        sum(range(100))


def test_sampling_profiler_catches_the_busy_function(tmp_path):
    profiler = SamplingProfiler(interval_s=0.002)
    profiler.start()
    _busy_marker_function(time.perf_counter() + 0.25)
    profiler.stop()
    assert profiler.samples >= 10
    lines = profiler.collapsed()
    assert lines, "no stacks collected"
    joined = "\n".join(lines)
    assert "_busy_marker_function" in joined
    # Collapsed format: "frame;frame;... count" with leaf last.
    stack, count = lines[0].rsplit(" ", 1)
    assert int(count) >= 1 and ";" in stack

    out = tmp_path / "prof.collapsed.txt"
    written = profiler.write_collapsed(str(out))
    assert written == profiler.samples
    assert "_busy_marker_function" in out.read_text()


def test_sampling_profiler_stop_is_idempotent_and_restartable():
    profiler = SamplingProfiler(interval_s=0.005)
    profiler.start()
    profiler.start()  # second start is a no-op, not a second thread
    time.sleep(0.03)
    profiler.stop()
    profiler.stop()
    count = profiler.samples
    time.sleep(0.03)
    assert profiler.samples == count  # sampling really stopped


def _python_work(count: int) -> int:
    total = 0
    for number in range(count):
        total += number * number
    return total


def test_sampling_profiler_charges_cpu_not_syscalls():
    """A pure-Python loop alternating with a pipe round trip: the loop
    takes nearly all the CPU, so it must take nearly all the samples.
    (A sampler thread that only gets the GIL at the loop thread's
    syscalls put every sample on the ``os.write`` / ``os.read``.)"""
    read_fd, write_fd = os.pipe()
    profiler = SamplingProfiler(interval_s=0.002)
    profiler.start()
    try:
        deadline = time.perf_counter() + 1.0
        while time.perf_counter() < deadline:
            _python_work(2000)
            os.write(write_fd, b"x")
            os.read(read_fd, 1)
    finally:
        profiler.stop()
        os.close(read_fd)
        os.close(write_fd)
    in_python = sum(
        int(line.rsplit(" ", 1)[1]) for line in profiler.collapsed()
        if "_python_work" in line
    )
    assert profiler.samples >= 20
    assert in_python >= 0.8 * profiler.samples, profiler.collapsed()[:5]


def _after_format(text: str) -> int:
    return len(text)


def test_sampling_profiler_charges_a_format_to_the_next_call():
    """A ``%`` format is C work but not a call: Python runs the
    ``SIGPROF`` handler at its next check, the entry of the trivial
    function called after it, so that function takes the format's
    samples and the line that formats takes almost none."""
    template = "%s," * 50_000
    values = ("x",) * 50_000
    profiler = SamplingProfiler(interval_s=0.002)
    profiler.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            _after_format(template % values)
    finally:
        profiler.stop()
    on_next_call = sum(
        int(line.rsplit(" ", 1)[1]) for line in profiler.collapsed()
        if line.rsplit(" ", 1)[0].endswith(f"_after_format (test_profile.py:"
                                           f"{_after_format.__code__.co_firstlineno})")
    )
    assert profiler.samples >= 20
    assert on_next_call >= 0.8 * profiler.samples, profiler.collapsed()[:5]
