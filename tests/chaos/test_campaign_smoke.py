"""Tier-1 chaos smoke: a 5-seed mini-campaign must be green.

The full campaign (``python -m repro chaos --seeds 50``) is the
acceptance gate; this marker-tagged slice keeps a representative bite
of it in the default test run.
"""

import json

import pytest

from repro.chaos import CampaignConfig, run_campaign

SMOKE_CONFIG = CampaignConfig(seeds=5, base_seed=0)


@pytest.mark.chaos_smoke
def test_mini_campaign_is_green_and_deterministic():
    first = run_campaign(SMOKE_CONFIG)
    assert first.ok, "; ".join(
        f"seed {o.seed} ({o.scenario}): {o.verdict.summary()}"
        for o in first.failures
    )
    assert len(first.outcomes) == 5
    # One schedule per scenario: the 5-seed slice covers the round-robin.
    assert len({o.scenario for o in first.outcomes}) == 5

    second = run_campaign(SMOKE_CONFIG)
    assert first.fingerprint() == second.fingerprint()


@pytest.mark.chaos_smoke
def test_mini_campaign_emits_bench_record(tmp_path):
    report = run_campaign(SMOKE_CONFIG)
    record = report.bench_record()
    assert record["bench"] == "chaos_campaign"
    assert record["seeds_run"] == 5
    assert record["failures"] == 0
    assert record["mean_recovery_outage_ms"] > 0

    bench_path = tmp_path / "BENCH_chaos.json"
    report.write_bench(bench_path)
    on_disk = json.loads(bench_path.read_text())
    assert on_disk == json.loads(json.dumps(record))


@pytest.mark.chaos_smoke
def test_report_serialises(tmp_path):
    report = run_campaign(SMOKE_CONFIG)
    out = tmp_path / "report.json"
    report.write_json(out)
    data = json.loads(out.read_text())
    assert data["ok"] is True
    assert data["seeds_run"] == 5
    assert len(data["outcomes"]) == 5
    for outcome in data["outcomes"]:
        assert outcome["verdict"]["ok"] is True
        assert outcome["schedule"]["events"]
