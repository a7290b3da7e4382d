"""Profiling hooks: event-loop lag, per-stage CPU, sampled stacks.

Three instruments sized to answer one question from the ROADMAP —
*where does the protocol-CPU bound of the batched fast path live?*

* :class:`EventLoopLagSampler` — a self-rescheduling timer measuring
  how late the loop fires it (scheduling lag = event-loop saturation)
  plus the process CPU-busy fraction over each interval, separating
  "the loop is busy computing" from "the loop is waiting on I/O".
  Cheap enough to run always (default 10 Hz).
* :class:`CpuAccountant` — opt-in per-stage CPU accounting on the hot
  path: named stages (frame decode, FSR automaton, command apply, ...)
  accumulate thread CPU time (``time.thread_time``) and wall time, so
  a telemetry snapshot shows protocol CPU split by stage against the
  sampler's I/O-wait remainder.
* :class:`SamplingProfiler` — an opt-in statistical profiler: a
  ``SIGPROF`` timer on process CPU time samples the event-loop
  thread's own stack and writes flamegraph-compatible collapsed stacks
  (``a;b;c 42`` lines, feedable to ``flamegraph.pl`` or speedscope) —
  stdlib only.

Everything is off (or not constructed) by default; the disabled-mode
benchmarks in EXPERIMENTS.md gate the zero-cost claim.
"""

from __future__ import annotations

import signal
import time
from collections import Counter as _Counter
from typing import Any, Dict, List, Optional

from repro.obs.telemetry import Telemetry


class EventLoopLagSampler:
    """Measure event-loop scheduling lag and CPU-busy fraction.

    Schedules itself every ``interval_s`` on the loop (via the node's
    scheduler, so it works on any ``Clock``-bearing runtime) and
    records how much later than requested it actually ran.  On a
    healthy idle loop the lag is microseconds; a loop pinned by
    protocol CPU shows lag approaching its batching/dispatch bursts.

    Per interval it also diffs ``time.process_time()`` against wall
    time: ``cpu_busy_fraction`` ~ 1.0 means the loop is compute-bound,
    ~ 0.0 means it is parked in the selector waiting on I/O.
    """

    def __init__(
        self,
        sched: Any,
        telemetry: Telemetry,
        interval_s: float = 0.1,
    ) -> None:
        self._sched = sched
        self._telemetry = telemetry
        self.interval_s = interval_s
        self._handle: Optional[Any] = None
        self._expected: Optional[float] = None
        self._last_cpu: Optional[float] = None
        self._last_wall: Optional[float] = None
        self._lag_gauge = telemetry.gauge("event_loop_lag_s")
        self._lag_hist = telemetry.histogram("event_loop_lag_s")
        self._busy_gauge = telemetry.gauge("cpu_busy_fraction")
        self.samples = 0

    def start(self) -> None:
        self._expected = self._sched.now + self.interval_s
        self._last_cpu = time.process_time()
        self._last_wall = self._sched.now
        self._handle = self._sched.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        now = self._sched.now
        lag = max(0.0, now - (self._expected or now))
        self._lag_gauge.set(lag)
        self._lag_hist.observe(lag)
        cpu = time.process_time()
        if self._last_cpu is not None and self._last_wall is not None:
            wall_delta = now - self._last_wall
            if wall_delta > 0:
                self._busy_gauge.set(
                    min(1.0, (cpu - self._last_cpu) / wall_delta)
                )
        self._last_cpu = cpu
        self._last_wall = now
        self.samples += 1
        self._expected = now + self.interval_s
        self._handle = self._sched.schedule(self.interval_s, self._tick)


class _StageSpan:
    """Reusable enter/exit timer for one named stage (non-reentrant)."""

    __slots__ = ("cpu_s", "wall_s", "count", "_cpu0", "_wall0")

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.count = 0
        self._cpu0 = 0.0
        self._wall0 = 0.0

    def __enter__(self) -> "_StageSpan":
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.cpu_s += time.thread_time() - self._cpu0
        self.wall_s += time.perf_counter() - self._wall0
        self.count += 1


class CpuAccountant:
    """Per-stage CPU/wall accounting for hot-path seams.

    Call sites hold the stage span once and wrap the work::

        span = accountant.stage("decode")
        ...
        with span:
            frame = decode(buf)

    ``None``-guarding at the seam keeps disabled runs at one attribute
    check.  :meth:`publish` pushes accumulated totals into telemetry
    gauges (``cpu_stage_<name>_s`` / ``wall_stage_<name>_s`` /
    ``stage_<name>_count``) so they ride the normal snapshot path.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, _StageSpan] = {}

    def stage(self, name: str) -> _StageSpan:
        span = self._stages.get(name)
        if span is None:
            span = self._stages[name] = _StageSpan()
        return span

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"cpu_s": s.cpu_s, "wall_s": s.wall_s, "count": s.count}
            for name, s in sorted(self._stages.items())
        }

    def publish(self, telemetry: Telemetry) -> None:
        for name, span in self._stages.items():
            telemetry.gauge(f"cpu_stage_{name}_s").set(span.cpu_s)
            telemetry.gauge(f"wall_stage_{name}_s").set(span.wall_s)
            telemetry.gauge(f"stage_{name}_count").set(float(span.count))


class SamplingProfiler:
    """Statistical stack sampler emitting collapsed flamegraph lines.

    Samples the main thread — the event loop's — every ``interval_s`` of
    process CPU time: ``setitimer(ITIMER_PROF)`` raises ``SIGPROF``, and
    the handler walks the frame it runs in.  Python runs the handler at
    its next check between bytecodes (a C call returning, a function
    entered, a loop jumping back): a C call (a syscall, an encoder) is
    charged to the frame that made it, but C work that is not a call (a
    ``%`` format) to whatever Python code runs next, so per-function
    self time is good to the caller, not the line.  A loop parked in
    ``select`` takes no samples.  (A sampler *thread* reading
    ``sys._current_frames`` only gets the GIL where the loop releases
    it, at syscalls, so every sample landed on one.)  Start it on the
    main thread: it installs a signal handler, and restores the
    previous one on :meth:`stop`.

    ``write_collapsed`` emits ``root;caller;leaf count`` lines — the
    format ``flamegraph.pl`` and speedscope ingest directly.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s
        self._stacks: _Counter = _Counter()
        self._previous: Any = None
        self._running = False
        self.samples = 0

    def start(self) -> None:
        if self._running:
            return
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        self._running = False

    def _sample(self, _signum: int, frame: Any) -> None:
        stack: List[str] = []
        while frame is not None and len(stack) < 128:
            code = frame.f_code
            stack.append(f"{code.co_name} ({code.co_filename.rsplit('/', 1)[-1]}:{code.co_firstlineno})")
            frame = frame.f_back
        if stack:
            self._stacks[";".join(reversed(stack))] += 1
            self.samples += 1

    def collapsed(self) -> List[str]:
        """Collapsed-stack lines, hottest first."""
        return [
            f"{stack} {count}"
            for stack, count in self._stacks.most_common()
        ]

    def write_collapsed(self, path: str) -> int:
        """Write collapsed stacks to ``path``; returns the sample count."""
        with open(path, "w") as fh:
            for line in self.collapsed():
                fh.write(line + "\n")
        return self.samples
