"""Tests for the command-line interface."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import CheckFailure
from repro.figures import CASES, Table


def test_run_subcommand(capsys):
    assert main([
        "run", "--protocol", "fsr", "--n", "3", "--senders", "2",
        "--messages", "3", "--size", "5000",
    ]) == 0
    out = capsys.readouterr().out
    assert "throughput (Mb/s)" in out
    assert "fairness (Jain)" in out


def test_run_baseline_protocol(capsys):
    assert main([
        "run", "--protocol", "fixed_sequencer", "--n", "3", "--senders", "1",
        "--messages", "3", "--size", "5000",
    ]) == 0
    assert "fixed_sequencer" in capsys.readouterr().out


def test_predict_subcommand(capsys):
    assert main(["predict", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "FSR maximum throughput" in out
    assert "94.1" in out  # raw goodput


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_seed_changes_nothing_semantically(capsys):
    main(["run", "--n", "3", "--senders", "1", "--messages", "2",
          "--size", "1000", "--seed", "7"])
    out = capsys.readouterr().out
    assert "throughput" in out


def test_figures_subcommand(capsys):
    assert main(["figures", "table1", "fig6", "fig7", "fig8", "fig9"]) == 0
    out = capsys.readouterr().out
    for marker in ("Table 1", "Figure 6", "Figure 7", "Figure 8", "Figure 9"):
        assert marker in out


def test_figures_exit_status_is_the_checks(capsys, monkeypatch):
    def broken():
        raise CheckFailure("latency must be linear in n")

    monkeypatch.setitem(CASES, "broken", broken)
    assert main(["figures", "broken", "table1"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED broken: latency must be linear in n" in out
    assert "Table 1" in out  # the other cases still run
    assert main(["figures", "no_such_case"]) == 2


def test_figures_checks_each_table_shape(capsys, monkeypatch):
    """A ragged row or an empty table fails the case, not the printout."""
    monkeypatch.setitem(CASES, "ragged", lambda: Table("t", ["a", "b"], [[1, 2], [1, 2, 3]]))
    monkeypatch.setitem(CASES, "empty", lambda: Table("t", ["a"], []))
    assert main(["figures", "ragged", "empty"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAILED ragged: rows [2, 3] wide under a 2-column header" in out
    assert "CHECK FAILED empty: empty table" in out


def test_figures_runs_outside_a_source_checkout(tmp_path):
    """The case table is part of the package: an installed copy of
    ``repro`` alone regenerates the tables, whatever the cwd."""
    site = tmp_path / "site"
    shutil.copytree(
        Path(__file__).resolve().parents[2] / "src" / "repro",
        site / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = dict(os.environ, PYTHONPATH=str(site))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "figures", "table1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Table 1 — raw point-to-point bandwidth" in proc.stdout


@pytest.mark.parametrize("flag, value", [
    ("--read-fraction", "2"), ("--sessions", "0"), ("--rate", "-5"),
    ("--kill-rate", "-1"),
])
def test_serve_rejects_an_out_of_range_load_before_launching(
    capsys, monkeypatch, flag, value
):
    from repro.live.runner import LiveCluster

    def launch(*args, **kwargs):
        raise AssertionError("a cluster was launched")

    monkeypatch.setattr(LiveCluster, "__init__", launch)
    assert main(["serve", flag, value, "--out", os.devnull]) == 2
    assert "invalid serve spec" in capsys.readouterr().err
