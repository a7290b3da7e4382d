"""The round-model FSR automaton *is* ``FSRProcess``.

Everything here reads the real automaton's own state and counters
through the round host — what the compact restatement it replaced could
not offer — plus the goldens that until now only ``benchmarks/`` scripts
looked at.
"""

import pytest

from repro.cli import main
from repro.core.fsr.process import FSRProcess
from repro.core.fsr.ring import Ring
from repro.errors import SimulationError
from repro.rounds import RoundEngine, RoundProcess, fsr_latency_formula
from repro.rounds.analysis import (
    _build,
    measure_latency,
    measure_throughput,
    round_factory,
)
from repro.rounds.fsr_round import FSRRoundProcess


def _ring(members, sender, t=1):
    """One broadcast from ``sender`` on an otherwise idle ring."""
    done = {}
    engine = RoundEngine()
    hosts = [
        FSRRoundProcess(
            pid, members, t=t, supply=1 if pid == sender else 0,
            deliver_cb=lambda pid, mid, seq, rnd: done.__setitem__(pid, rnd),
        )
        for pid in members
    ]
    for host in hosts:
        engine.attach(host)
    engine.run_until(lambda: len(done) == len(members), max_rounds=1000)
    return hosts, max(done.values()) + 1


def test_host_runs_the_real_automaton():
    host = FSRRoundProcess(0, (0, 1, 2), t=1)
    assert type(host.process) is FSRProcess
    assert isinstance(host, RoundProcess)


# -- (a) §4.2.2 goldens, so far only printed by bench_piggyback_ablation --
@pytest.mark.parametrize("k,standalone", [(1, "1.000"), (2, "0.666"), (4, "0.572")])
def test_piggyback_ablation_goldens(k, standalone):
    on = measure_throughput(round_factory("fsr", t=1, piggyback=True), 5, k)
    off = measure_throughput(round_factory("fsr", t=1, piggyback=False), 5, k)
    assert f"{on.throughput:.3f}" == "1.000"
    assert f"{off.throughput:.3f}" == standalone


# -- (b) rotated membership: the formula is about positions, not pids ----
def test_latency_formula_under_every_rotation():
    base = tuple(range(6))
    for shift in range(6):
        members = base[shift:] + base[:shift]
        ring = Ring(members=members, t=1)
        for sender in base:
            _hosts, rounds = _ring(members, sender)
            assert rounds == ring.latency_rounds(ring.position_of(sender)), (
                members, sender,
            )


# -- (c) bounded state at saturation --------------------------------------
def test_retention_does_not_grow_with_run_length():
    n, k = 5, 3
    supplies = {pid: (None if pid < k else 0) for pid in range(n)}
    engine, hosts, _observer = _build(
        round_factory("fsr", t=1), n, supplies, window=4 * n
    )
    engine.run_rounds(200)
    peaks = {}
    retained = seq_of = 0
    for rounds in range(1, 4001):
        engine.run_round()
        retained = max(retained, max(h.process.retained_count for h in hosts))
        seq_of = max(seq_of, max(len(h.process._seq_of) for h in hosts))
        if rounds in (500, 1500, 4000):
            peaks[rounds] = (retained, seq_of)
    # k senders x window in flight is all a process ever has to retain.
    assert peaks[500] == peaks[1500] == peaks[4000] == (k * 4 * n, k * 4 * n)


# -- (d) no timers; the idle ring ships its acks standalone (§4.2.2) ------
def test_still_clock_and_low_load_acks():
    hosts, rounds = _ring(tuple(range(5)), sender=1)
    assert rounds == fsr_latency_formula(5, 1, 1) == 9
    # Nothing in that run armed a timer: the host's clock refuses them.
    assert hosts[0].now == 0.0
    with pytest.raises(SimulationError, match="no timers"):
        hosts[0].schedule(0.0, lambda: None)
    piggybacked = sum(h.process.stats_acks_piggybacked for h in hosts)
    standalone = sum(h.process.stats_acks_standalone for h in hosts)
    assert (piggybacked, standalone) == (0, 5)


def test_single_process_group():
    factory = round_factory("fsr", t=1)
    assert measure_latency(factory, 1, 0) == 1  # delivered in its first round
    assert measure_throughput(factory, 1, 1).throughput == 1.0


# -- (e) CLI output, captured at the parent commit ------------------------
ROUNDS_N5_K2 = """\
Round model: n=5, k=2 saturating senders
protocol               msgs/round  L(1) rounds
---------------------  ----------  -----------
communication_history       0.500            8
destination_agreement       0.752            7
      fixed_sequencer       0.230            7
                  fsr       1.000            9
     moving_sequencer       0.555            6
            privilege       0.616           10

FSR formula check: L(1) = 2n + t - 2 = 9
"""


def test_cli_rounds_table_is_byte_identical(capsys):
    assert main(["rounds", "--n", "5", "--k", "2"]) == 0
    assert capsys.readouterr().out == ROUNDS_N5_K2


# -- one closed form ------------------------------------------------------
def test_formula_clamps_t_like_the_automaton(capsys):
    """``t >= n`` is clamped to ``n - 1`` per view; the formula used to
    print 9 under a table that measured 6."""
    assert fsr_latency_formula(3, 5, 1) == fsr_latency_formula(3, 2, 1) == 6
    assert measure_latency(round_factory("fsr", t=5), 3, 1) == 6
    for n in (1, 2, 5):
        for position in range(n):
            assert fsr_latency_formula(n, 1, position) == Ring(
                members=tuple(range(n)), t=min(1, n - 1)
            ).latency_rounds(position)
    assert main(["rounds", "--n", "3", "--k", "1", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert "fsr       1.000            6" in out
    assert out.endswith("= 6 (t = 2, clamped to n - 1)\n")


# -- a duplicate delivery must not complete a broadcast -------------------
class _DeliversTwice(RoundProcess):
    def __init__(self, pid, members, supply, deliver_cb, window=None):
        super().__init__(pid)
        self.deliver_cb = deliver_cb
        self.delivered = []

    def begin_round(self, round_index):
        if self.pid == 0 and round_index == 0:
            # Two calls for one message at one process; with n = 2 the old
            # per-message count read that as "everyone delivered".
            self.deliver_cb(0, (0, 1), 1, round_index)
            self.deliver_cb(0, (0, 1), 1, round_index)

    def receive(self, round_index, src, payload):
        pass


def test_observer_rejects_a_repeated_delivery():
    with pytest.raises(SimulationError, match="delivered .* twice"):
        measure_latency(_DeliversTwice, 2, 0, max_rounds=5)
    with pytest.raises(SimulationError, match="delivered .* twice"):
        measure_throughput(_DeliversTwice, 2, 1, warmup_rounds=1, window_rounds=1)
