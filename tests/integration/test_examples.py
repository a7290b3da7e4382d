"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a broken example is a broken
promise.  Each ``main()`` is imported and executed (they all assert
their own claims internally).
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run_example(name: str) -> None:
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    module.main()


def test_quickstart_runs(capsys):
    _run_example("quickstart.py")
    assert "same total order" in capsys.readouterr().out


def test_replicated_kv_runs(capsys):
    _run_example("replicated_kv.py")
    out = capsys.readouterr().out
    assert "bit-identical" in out


def test_failover_demo_runs(capsys):
    _run_example("failover_demo.py")
    out = capsys.readouterr().out
    assert "Uniform total order held" in out


def test_crash_timeline_runs(capsys):
    _run_example("crash_timeline.py")
    out = capsys.readouterr().out
    assert "deliveries over" in out
    assert "0 invariant violations" in out

