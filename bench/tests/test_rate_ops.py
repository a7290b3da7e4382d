"""The quiet-window rule end-to-end numbers are rated by."""

import math

from stats import INF_MS
from workloads import rate_ops


class FakeSampler:
    """Steal share per 1 s window, looked up by the window's start."""

    def __init__(self, steal):
        self.steal = steal

    def steal_fraction(self, start, end):
        if end - start > 1.5:  # the whole-run figure
            return sum(self.steal) / len(self.steal)
        return self.steal[int(start)]


def ops_for(rates, latency):
    """``rates[i]`` operations complete in window ``i``, each having
    taken ``latency[i]`` seconds."""
    ops = []
    for window, rate in enumerate(rates):
        for k in range(rate):
            done = window + (k + 0.5) / rate
            ops.append((done - latency[window], done))
    return ops


def test_only_quiet_windows_are_rated():
    #        ramp  q     q     NOISY NOISY q     q     drain
    steal = [0.0, 0.00, 0.01, 0.30, 0.25, 0.02, 0.00, 0.0]
    rates = [50, 100, 100, 40, 60, 100, 100, 50]
    latency = [0.001] * 3 + [0.050] * 2 + [0.001] * 3
    rated = rate_ops(ops_for(rates, latency), 0, 0.0, 8.0, FakeSampler(steal))
    assert rated["ops_per_s"] == 100.0
    assert (rated["windows"], rated["quiet_windows"]) == (4, 4)
    assert rated["detail"]["kept_windows"] == [1, 2, 5, 6]
    # Latency comes from operations begun in the kept windows only.
    assert rated["op_p50_ms"] < 2 and rated["op_tail_ms"] < 2


def test_a_noisy_run_falls_back_to_its_three_least_robbed_windows():
    steal = [0.0, 0.30, 0.01, 0.25, 0.10, 0.40, 0.05, 0.0]
    rates = [50, 40, 100, 60, 90, 30, 95, 50]
    rated = rate_ops(
        ops_for(rates, [0.001] * 8), 0, 0.0, 8.0, FakeSampler(steal)
    )
    assert rated["quiet_windows"] == 1  # fewer than three pass the 2 % line
    assert rated["detail"]["kept_windows"] == [2, 4, 6]
    assert rated["ops_per_s"] == 95.0
    assert math.isclose(rated["kept_steal"], (0.01 + 0.10 + 0.05) / 3)


def test_failures_are_never_excused_by_a_noisy_window():
    steal = [0.0] * 6
    rated = rate_ops(
        ops_for([100] * 6, [0.001] * 6), 200, 0.0, 6.0, FakeSampler(steal)
    )
    # 200 failed beside 400 pooled: a third, so the tail is +inf.
    assert rated["op_tail_ms"] == INF_MS
    assert rated["op_p50_ms"] < 2


def test_the_kill_sets_the_median_whatever_the_host_did():
    steal = [0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0]
    # Three nodes serve 100/s; the kill lands at t = 4.2 s; the 2-node
    # ring that survives is faster.
    rates = [100, 100, 100, 100, 0, 200, 120, 120, 120, 120]
    latency = [0.003] * 10
    ops = ops_for(rates, latency)
    # Requests due in the second after the kill complete at t = 5.2 s.
    ops += [(4.2 + k / 500, 5.2) for k in range(500)]
    healthy = rate_ops(ops, 0, 0.0, 10.0, FakeSampler(steal))
    assert healthy["op_tail_ms"] < 4  # windows 4 and 5 are not quiet
    killed = rate_ops(ops, 0, 0.0, 10.0, FakeSampler(steal), kill_time=4.2)
    # Due in [4.2, 4.4): waits of 1.0 .. 0.8 s; the median of those is
    # the outage minus half of that fifth of a second.
    assert 890 < killed["op_p50_ms"] < 910
    assert killed["samples"] == 100
    # Rate and tail come from the healthy windows before the kill.
    assert killed["detail"]["kept_windows"] == [1, 2, 3]
    assert killed["ops_per_s"] == 100.0
    assert 2.9 < killed["op_tail_ms"] < 3.1
