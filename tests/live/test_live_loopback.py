"""Live loopback smoke tests: real OS processes, real TCP sockets.

These spawn ``python -m repro live-node`` subprocesses, so they are the
one place in the tier-1 suite where FSR runs over genuine sockets.  The
cluster is kept small and the duration short.
"""

import json

import pytest

from repro.checker.order import check_all
from repro.live.runner import (
    LiveClusterSpec,
    run_live_benchmark,
    run_live_cluster,
)

pytestmark = pytest.mark.live_smoke


def _smoke_spec(**overrides):
    base = dict(
        processes=3,
        senders=1,
        t=1,
        message_bytes=10_000,
        duration_s=0.6,
        window=2,
        settle_s=0.2,
        quiet_s=0.3,
        max_run_s=30.0,
        sim_compare=False,
    )
    base.update(overrides)
    return LiveClusterSpec(**base)


def test_live_loopback_total_order():
    live = run_live_cluster(_smoke_spec())
    assert live.order_ok, live.order_error
    assert not live.timed_out
    # Every node processed real traffic.
    for record in live.node_records.values():
        assert record["stats"]["frames_received"] > 0
        # Batching is off by default, and off really is the plain
        # one-frame-per-write wire.
        assert record["stats"]["flushes"] == record["stats"]["frames_sent"]
        assert record["stats"]["batches_received"] == 0
    # The sender actually completed messages through the real ring.
    assert live.metrics.messages_completed >= 1
    # Identical total order is also directly checkable on the merged
    # result with the standard oracle (raises on violation).
    check_all(live.result)


def test_live_loopback_two_senders():
    live = run_live_cluster(_smoke_spec(senders=2))
    assert live.order_ok, live.order_error
    assert set(live.outcome.sent) == {0, 1}
    assert all(ids for ids in live.outcome.sent.values())


def test_live_benchmark_writes_bench_record(tmp_path):
    out = tmp_path / "BENCH_live.json"
    payload = run_live_benchmark(_smoke_spec(), out_path=str(out))
    on_disk = json.loads(out.read_text())
    assert on_disk == payload
    assert on_disk["schema"] == "repro.bench_live/1"
    assert on_disk["order_check"]["ok"] is True
    assert on_disk["live"]["metrics"]["messages_completed"] >= 1
    assert on_disk["model"]["fsr_mbps"] > 0
    # sim comparison disabled in the smoke spec
    assert on_disk["sim"] is None


@pytest.mark.slow
def test_live_benchmark_with_sim_comparison(tmp_path):
    out = tmp_path / "BENCH_live.json"
    payload = run_live_benchmark(
        _smoke_spec(sim_compare=True), out_path=str(out)
    )
    assert payload["sim"] is not None
    assert payload["sim"]["metrics"]["completion_throughput_mbps"] > 0
