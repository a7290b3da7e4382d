"""Simulator-side conformance: the session layer on the sim cluster.

The live half (``test_live_serve.py``) replays the same
``CONFORMANCE_SCRIPT`` through real TCP servers and asserts the
applied-command sequence matches what these tests pin down.
"""

from repro.serve.sim import (
    CONFORMANCE_SCRIPT,
    expected_applied,
    run_scripted_session,
)


def test_scripted_session_applies_identically_on_all_nodes():
    run = run_scripted_session()
    reference = run.applied[0]
    assert reference == expected_applied(CONFORMANCE_SCRIPT)
    for node_id, applied in run.applied.items():
        assert applied == reference, f"node {node_id} diverged"
    # The two scripted duplicates dedup on every replica.
    assert all(hits == 2 for hits in run.dedup_hits.values())


def test_scripted_session_states_converge():
    run = run_scripted_session()
    reference = run.snapshots[0]
    assert all(snap == reference for snap in run.snapshots.values())
    # Spot-check the semantics: the duplicate incr applied once.
    assert reference["inner"] == {"ctr": 5, "y": "10"}
    alice = reference["sessions"]["alice"]
    # The script's first_unacked cursor acked seqs 1-3, pruning their
    # cached results (the seq-3 error answered both its copies first —
    # see the dedup_hits assertion above).
    assert alice["floor"] == 3
    assert set(alice["results"]) == {"4"}


def test_scripted_session_is_deterministic():
    first = run_scripted_session()
    second = run_scripted_session()
    assert first.applied == second.applied
    assert first.snapshots == second.snapshots
    assert first.dedup_hits == second.dedup_hits


def test_script_survives_larger_cluster_and_backup_count():
    run = run_scripted_session(n=5, t=2)
    assert len(run.applied) == 5
    assert all(
        applied == run.applied[0] for applied in run.applied.values()
    )


def test_script_replayed_as_batches_applies_the_same_sequence():
    """Group commit on the sim runtime: the script cut into ``@batch``
    broadcasts (duplicates inside one batch, across two, a batch of
    one) applies exactly what the one-per-broadcast run applies."""
    plain = run_scripted_session()
    for batch_sizes in ([len(CONFORMANCE_SCRIPT)], [4, 1, 4], [2, 2, 2, 2, 1], [3]):
        run = run_scripted_session(batch_sizes=batch_sizes)
        for node_id, applied in run.applied.items():
            assert applied == expected_applied(CONFORMANCE_SCRIPT), (
                f"node {node_id} diverged with batches {batch_sizes}"
            )
        assert run.dedup_hits == plain.dedup_hits
        assert run.snapshots == plain.snapshots
