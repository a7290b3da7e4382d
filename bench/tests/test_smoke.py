"""``run.py --quick`` end to end: all five workloads, both modes."""

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS


def run_quick(tmp_path, *extra):
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--quick",
         "--seed", "5", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(out) as fh:
        return proc.stdout, json.load(fh)


def test_quick_prints_every_end_to_end_metric_for_all_five_workloads(tmp_path):
    stdout, document = run_quick(tmp_path)
    assert document["environment"]["quick"] is True
    assert document["environment"]["comparable"] is False
    assert "QUICK (not comparable)" in stdout
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, result in document["workloads"].items():
        assert result["correct"], result["gates"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m[0] for m in END_TO_END]
        for metric, unit, _better, _bound in END_TO_END:
            assert result["metrics"][metric]["unit"] == unit
            assert result["metrics"][metric]["value"] > 0
            assert metric in stdout
    # The full report carries the isolated drives too.
    for metric, _unit, _better in PER_LAYER:
        if metric in document["isolated"]:
            assert metric in stdout
    assert "fsr.null_ring_msgs_per_s" in document["isolated"]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True


def test_quick_traced_run_prints_every_per_layer_metric(tmp_path):
    stdout, document = run_quick(
        tmp_path, "--trace", "1",
        "--workload", "ring_small_sat", "--workload", "serve_leader_kill",
    )
    for result in document["workloads"].values():
        assert result["correct"], result["gates"]
        assert list(result["metrics"]) == [m[0] for m in PER_LAYER]
    ring = document["workloads"]["ring_small_sat"]["metrics"]
    total = sum(
        ring[m]["value"] for m in ring if m.endswith("self_us_per_op")
    ) + ring["trace.unattributed_us_per_op"]["value"]
    assert total == pytest.approx(ring["trace.node_cpu_us_per_op"]["value"])
    assert ring["fsr.self_us_per_op"]["value"] > 0
    assert ring["trace.spans_sampled"]["value"] > 0
    kill = document["workloads"]["serve_leader_kill"]["metrics"]
    assert kill["client.outage_s"]["value"] > 0
    assert kill["membership.views_installed"]["value"] == 2
    assert kill["session.apply_self_us_per_op"]["value"] > 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m[0] for m in PER_LAYER]


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_open",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
