"""Property-based tests: channel ARQ and round-model total order."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.figures import CLASSES
from repro.net import ChannelStack, Network, NetworkParams
from repro.rounds.analysis import measure_throughput, round_factory
from repro.sim import Simulator


@given(
    loss=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=2**16),
    count=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_channel_arq_delivers_everything_in_order(loss, seed, count):
    params = NetworkParams(
        cpu_per_message_s=0.0,
        cpu_per_byte_s=0.0,
        loss_rate=loss,
        retransmit_timeout_s=2e-3,
    )
    sim = Simulator()
    net = Network(sim, params, loss_rng=random.Random(seed))
    sender = ChannelStack(sim, net.attach(0), params)
    receiver = ChannelStack(sim, net.attach(1), params)
    got = []
    receiver.on_receive(lambda src, msg: got.append(msg))
    expected = [f"m{i}".encode() for i in range(count)]
    for message in expected:
        sender.send(1, message)
    sim.run()
    assert got == expected


@given(
    n=st.integers(min_value=2, max_value=8),
    t=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=1, max_value=8),
    fairness=st.booleans(),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_round_model_fsr_total_order_any_configuration(n, t, k, fairness):
    t = min(t, n - 1)
    k = min(k, n)
    result = measure_throughput(
        round_factory("fsr", t=t, fairness=fairness),
        n, k, warmup_rounds=50, window_rounds=200,
    )
    logs = list(result.delivered.values())
    shortest = min(len(log) for log in logs)
    reference = logs[0][:shortest]
    for log in logs[1:]:
        assert log[:shortest] == reference


@given(
    n=st.integers(min_value=2, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    name=st.sampled_from(CLASSES[1:]),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_round_model_baselines_total_order_any_configuration(n, k, name):
    k = min(k, n)
    result = measure_throughput(
        round_factory(name), n, k, warmup_rounds=100, window_rounds=300,
    )
    logs = list(result.delivered.values())
    shortest = min(len(log) for log in logs)
    reference = logs[0][:shortest]
    for log in logs[1:]:
        assert log[:shortest] == reference
