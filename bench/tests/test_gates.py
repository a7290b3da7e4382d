from types import SimpleNamespace

from workloads import response_violations, snapshot_verdict


def stats(index, digest):
    return {"applied_index": index, "snapshot_hash": digest}


def test_equal_index_equal_hash_is_clean():
    assert snapshot_verdict({0: stats(10, "aa"), 1: stats(10, "aa")}) == (0, [])


def test_lease_renewal_in_flight_at_sigterm_is_teardown_skew_not_divergence():
    # One survivor applied an @lease entry the other had not yet seen:
    # different applied_index, so different hashes prove nothing.
    skew, violations = snapshot_verdict({1: stats(10, "aa"), 2: stats(11, "bb")})
    assert (skew, violations) == (1, [])


def test_hash_mismatch_at_equal_index_is_a_hard_failure():
    skew, violations = snapshot_verdict(
        {0: stats(10, "aa"), 1: stats(10, "bb"), 2: stats(11, "cc")}
    )
    assert skew == 1
    assert len(violations) == 1 and "applied_index 10" in violations[0]


def test_a_read_must_return_a_value_written_to_its_own_key():
    def record(key, result, failed=False):
        return SimpleNamespace(op="get", key=key, result=result, failed=failed)

    load = SimpleNamespace(records=[
        record("k1", None), record("k1", "k1|7|vvv"),
        record("k1", "k2|9|vvv"), record("k3", "garbage", failed=True),
    ])
    assert len(response_violations(load)) == 1
