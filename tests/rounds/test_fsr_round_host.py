"""The round host, and the round-model FSR automaton *is* ``FSRProcess``.

The host's slot and timer rules on a probe protocol; then the real
automaton's own state and counters read through the host, and the
round-model goldens of the evaluation.
"""

import pytest

from repro.core.fsr import FSRConfig
from repro.core.fsr.process import FSRProcess
from repro.core.fsr.ring import Ring
from repro.errors import SimulationError
from repro.figures import CLASSES
from repro.protocols.registry import PROTOCOLS
from repro.rounds import RoundEngine, RoundHost, RoundProcess, fsr_latency_formula
from repro.rounds.analysis import (
    _build,
    measure_latency,
    measure_throughput,
    round_factory,
)


def _ring(members, sender, t=1):
    """One broadcast from ``sender`` on an otherwise idle ring."""
    done = {}
    engine = RoundEngine()
    factory = round_factory("fsr", t=t)
    hosts = [
        factory(
            pid, members, 1 if pid == sender else 0,
            lambda pid, mid, seq, rnd: done.__setitem__(pid, rnd),
        )
        for pid in members
    ]
    for host in hosts:
        engine.attach(host)
    engine.run_until(lambda: len(done) == len(members), max_rounds=1000)
    return hosts, max(done.values()) + 1


class _Probe:
    """A protocol that sends only when the test calls its port."""

    def __init__(self, context):
        self.port = context.port
        self.received = []
        self.port.on_receive(lambda src, message: self.received.append((src, message)))

    def on_protocol_deliver(self, callback):
        pass

    def start(self):
        pass


@pytest.fixture
def probe_group(monkeypatch):
    monkeypatch.setitem(PROTOCOLS, "round_probe", _Probe)
    engine = RoundEngine()
    hosts = [RoundHost(pid, (0, 1, 2, 3), "round_probe") for pid in range(4)]
    for host in hosts:
        engine.attach(host)
    return engine, [host.process for host in hosts]


def test_a_fan_out_costs_one_slot_and_the_next_message_waits(probe_group):
    engine, probes = probe_group
    first, second = object(), object()
    for dst in (1, 2, 3):  # a best-effort broadcast: n - 1 unicasts
        probes[0].port.send(dst, first)
    probes[0].port.send(1, second)
    engine.run_round()
    assert [probe.received for probe in probes[1:]] == [[(0, first)]] * 3
    engine.run_round()
    assert probes[1].received == [(0, first), (0, second)]


def test_a_positive_delay_fires_at_the_start_of_the_next_round(probe_group):
    engine, probes = probe_group
    host, fired = probes[0].port, []

    def tick(label):
        fired.append((label, engine.round_index))
        if label == "positive":
            host.send(1, label)  # the round's slot is still free
            host.schedule(0.0, tick, "zero")

    engine.run_round()
    host.schedule(1e-3, tick, "positive")
    engine.run_round()
    assert fired == [("positive", 1), ("zero", 1)]
    assert probes[1].received == [(0, "positive")]


def test_host_runs_the_real_automaton():
    host = round_factory("fsr", t=1)(0, (0, 1, 2), 0, None)
    assert type(host.process) is FSRProcess
    assert isinstance(host, RoundProcess)


# -- (a) §4.2.2 goldens (the piggyback_rounds case prints k = 2, 3, 5) -
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
def test_still_clock_and_low_load_acks(monkeypatch):
    def refuse(self, delay, callback, *args):
        raise SimulationError("FSR armed a timer in the round model")

    # Nothing in that run arms a timer: a clock that refuses them runs it.
    monkeypatch.setattr(RoundHost, "schedule", refuse)
    hosts, rounds = _ring(tuple(range(5)), sender=1)
    assert rounds == fsr_latency_formula(5, 1, 1) == 9
    assert hosts[0].now == 0.0
    piggybacked = sum(h.process.stats_acks_piggybacked for h in hosts)
    standalone = sum(h.process.stats_acks_standalone for h in hosts)
    assert (piggybacked, standalone) == (0, 5)


def test_single_process_group():
    factory = round_factory("fsr", t=1)
    assert measure_latency(factory, 1, 0) == 1  # delivered in its first round
    assert measure_throughput(factory, 1, 1).throughput == 1.0


# -- (e) the n = 5, k = 2 round-model table, pinned when it was printed --
#: protocol -> (msgs/round with k = 2 saturating senders, L(1) in rounds)
ROUNDS_N5_K2 = {
    "communication_history": ("0.500", 8),
    # a member with a candidate nudges the coordinator, and every nudge
    # costs the coordinator a receive slot.
    "destination_agreement": ("0.648", 7),
    "fixed_sequencer": ("0.230", 7),
    "fsr": ("1.000", 9),
    # the token is its own unicast after each assignment broadcast, and
    # a member learns stability only when it passes the token on, so
    # delivery waits for a second token lap.
    "moving_sequencer": ("0.354", 11),
    # L = 12: p0 keeps the initial token until its idle-hold timer fires in
    # round 1, and the last member learns stability when its idle-hold
    # timer passes the token on, one round after receiving it.
    "privilege": ("0.616", 12),
}


def test_rounds_n5_k2_table_matches_pinned_values():
    assert set(ROUNDS_N5_K2) == set(CLASSES)
    for name, (throughput, latency) in ROUNDS_N5_K2.items():
        factory = round_factory(name)
        assert f"{measure_throughput(factory, 5, 2).throughput:.3f}" == throughput, name
        assert measure_latency(factory, 5, 1, max_rounds=5000) == latency, name
    assert fsr_latency_formula(5, 1, 1) == 9


# -- one closed form ------------------------------------------------------
def test_formula_clamps_t_like_the_automaton():
    """``t >= n`` is clamped to ``n - 1`` per view; the formula used to
    print 9 under a table that measured 6."""
    assert fsr_latency_formula(3, 5, 1) == fsr_latency_formula(3, 2, 1) == 6
    factory = round_factory("fsr", t=5)
    assert measure_latency(factory, 3, 1) == 6
    assert f"{measure_throughput(factory, 3, 1).throughput:.3f}" == "1.000"
    assert FSRConfig(t=5).effective_t(3) == 2
    for n in (1, 2, 5):
        for position in range(n):
            assert fsr_latency_formula(n, 1, position) == Ring(
                members=tuple(range(n)), t=min(1, n - 1)
            ).latency_rounds(position)


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
