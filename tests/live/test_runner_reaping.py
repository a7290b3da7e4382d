"""Regression: a node dying at startup must not orphan its siblings.

Before the ``LiveCluster`` refactor, a node that failed to bind its
port made the launcher sit out the *full* run deadline while the dead
node's siblings idled, and the ``finally`` path killed without
``wait()``-ing — leaking zombies.  These tests pin the fixed
behaviour: fail fast, and reap everything.
"""

import socket
import tempfile
import time

import pytest

import repro.live.runner as runner
from repro.errors import NetworkError
from repro.live.runner import LiveCluster, LiveClusterSpec


def _spec():
    return LiveClusterSpec(
        processes=3,
        senders=1,
        t=1,
        message_bytes=5_000,
        duration_s=0.5,
        window=1,
        max_run_s=20.0,
        connect_timeout_s=8.0,
        sim_compare=False,
    )


@pytest.mark.live_smoke
def test_startup_bind_failure_fails_fast_and_reaps_all(monkeypatch):
    # Hold one of the allocated ports so node 0's bind fails instantly.
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    blocked_port = blocker.getsockname()[1]

    real_free_ports = runner._free_ports

    def sabotaged(host, count):
        ports = real_free_ports(host, count)
        ports[0] = blocked_port
        return ports

    monkeypatch.setattr(runner, "_free_ports", sabotaged)

    spec = _spec()
    started = time.monotonic()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-reap-") as workdir:
            cluster = LiveCluster(spec, workdir)
            try:
                with pytest.raises(NetworkError, match="node 0"):
                    cluster.wait(60.0)  # fail-fast: returns on first death
                    cluster.raise_on_failures()
            finally:
                cluster.shutdown()
            elapsed = time.monotonic() - started
            # Fail-fast: well under the connect timeout the healthy
            # siblings would otherwise burn waiting for node 0.
            assert elapsed < spec.connect_timeout_s
            # Every child killed AND waited on: no zombies, no orphans.
            for pid, proc in cluster.procs.items():
                assert proc.poll() is not None, f"node {pid} not reaped"
    finally:
        blocker.close()


@pytest.mark.live_smoke
def test_run_live_cluster_surfaces_startup_failure(monkeypatch):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    blocked_port = blocker.getsockname()[1]

    real_free_ports = runner._free_ports

    def sabotaged(host, count):
        ports = real_free_ports(host, count)
        ports[-1] = blocked_port
        return ports

    monkeypatch.setattr(runner, "_free_ports", sabotaged)
    started = time.monotonic()
    try:
        with pytest.raises(NetworkError):
            runner.run_live_cluster(_spec())
        assert time.monotonic() - started < _spec().connect_timeout_s
    finally:
        blocker.close()
