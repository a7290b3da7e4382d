"""Round-model validation of the paper's Section 2 per-class claims."""

import pytest

from repro.cluster import ClusterConfig, build_cluster
from repro.figures import CLASSES
from repro.rounds.analysis import measure_latency, measure_throughput, round_factory
from repro.rounds.history_round import CommunicationHistoryRoundProcess

BASELINES = list(CLASSES[1:])


@pytest.mark.parametrize("name", BASELINES)
def test_baselines_deliver_total_order(name):
    result = measure_throughput(round_factory(name), 4, 2,
                                warmup_rounds=200, window_rounds=600)
    logs = list(result.delivered.values())
    shortest = min(len(log) for log in logs)
    assert shortest > 10
    reference = logs[0][:shortest]
    for log in logs[1:]:
        assert log[:shortest] == reference


@pytest.mark.parametrize("name", BASELINES)
def test_baselines_complete_single_broadcast(name):
    assert measure_latency(round_factory(name), 4, 1, max_rounds=500) > 0


def test_fixed_sequencer_throughput_poor_and_degrading():
    """§2.1: the sequencer's receive slot caps throughput ~1/(n-1)."""
    t5 = measure_throughput(round_factory("fixed_sequencer"), 5, 1).throughput
    t9 = measure_throughput(round_factory("fixed_sequencer"), 9, 1).throughput
    assert t5 < 0.5
    assert t9 < t5  # degrades with n


def test_moving_sequencer_below_one():
    """§2.2 / Figure 2: at most one delivery every two rounds."""
    for k in (1, 2, 5):
        result = measure_throughput(round_factory("moving_sequencer"), 5, k)
        assert result.throughput <= 0.6


def test_privilege_fairness_throughput_tradeoff():
    """§2.3: small quota = fair but slow; senders at opposite ends."""
    result = measure_throughput(round_factory("privilege"), 6, 2,
                                warmup_rounds=200, window_rounds=1000)
    assert result.throughput < 1.0  # token travel wastes rounds


def test_communication_history_poor_below_all_to_all():
    """§2.4: quadratic messages force 1/(n-1) throttling per sender."""
    result = measure_throughput(round_factory("communication_history"), 5, 1)
    assert result.throughput == pytest.approx(0.25, abs=0.02)


def test_destination_agreement_below_one():
    """§2.5: consensus control waves tax every batch."""
    result = measure_throughput(round_factory("destination_agreement"), 5, 2)
    assert result.throughput < 1.0


def test_fsr_beats_every_baseline_at_k2():
    """The paper's headline: only FSR is throughput-efficient in
    k-to-n patterns."""
    fsr = measure_throughput(round_factory("fsr", t=1), 6, 2).throughput
    assert fsr >= 0.999
    for name in BASELINES:
        baseline = measure_throughput(round_factory(name), 6, 2).throughput
        assert baseline < fsr, f"{name} unexpectedly matched FSR"


def test_round_factory_hosts_the_registered_classes():
    """The round model runs the class the simulator runs, not a copy;
    communication history alone keeps its own automaton."""
    for name in CLASSES:
        host = round_factory(name)(0, (0, 1, 2), 0, None)
        if name == "communication_history":
            assert type(host) is CommunicationHistoryRoundProcess
            continue
        simulated = build_cluster(ClusterConfig(n=3, protocol=name)).nodes[0].protocol
        assert type(host.process) is type(simulated), name


def test_round_factory_rejects_unknown():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        round_factory("nope")
    with pytest.raises(ConfigurationError):
        round_factory("privilege", t=1)
