"""Node CPU-stage accounting on a real run (``profile_dir``).

A profiled node charges its transports' upcalls (the FSR automaton's
whole receive path) to the ``fsr`` stage and their sends (codec encode
and enqueue) to ``encode``, on every ring, and leaves a collapsed-stack
file per node.
"""

import os

import pytest

from repro.live.runner import LiveClusterSpec, run_live_cluster

pytestmark = pytest.mark.live_smoke


@pytest.mark.parametrize("shards", [1, 2])
def test_profiled_run_accounts_fsr_and_encode_stages(tmp_path, shards):
    profile_dir = str(tmp_path / "profiles")
    spec = LiveClusterSpec(
        processes=3,
        senders=1,
        shards=shards,
        message_bytes=1_000,
        messages_per_sender=20,
        window=4,
        max_run_s=30.0,
        sim_compare=False,
        profile_dir=profile_dir,
    )
    live = run_live_cluster(spec)
    assert live.order_ok, live.order_error
    assert not live.timed_out
    for pid, record in live.node_records.items():
        stages = record["cpu_stages"]
        # Every node receives ring traffic and forwards or acks it.
        assert stages["fsr"]["count"] > 0, pid
        assert stages["encode"]["count"] > 0, pid
        assert os.path.isfile(
            os.path.join(profile_dir, f"node{pid}.collapsed.txt")
        ), pid
