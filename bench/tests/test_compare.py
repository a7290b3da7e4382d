from compare import verdict

A = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_improved_needs_nine_of_ten_pairs_and_a_gap_beyond_the_iqr():
    better = [value * 1.2 for value in A]
    assert verdict("ops_per_s", A, better, 0.10)["verdict"] == "improved"
    # Wins every pair, but by less than A's own inter-quartile distance.
    barely = [value + 0.05 for value in A]
    assert verdict("ops_per_s", A, barely, 0.10)["verdict"] == "unchanged"
    # A clear median gap carried by 8 of 10 pairs only: not a claim.
    mixed = [value * 1.2 for value in A[:8]] + [value * 0.9 for value in A[8:]]
    assert verdict("ops_per_s", A, mixed, 0.10)["verdict"] == "unchanged"


def test_direction_follows_the_metric():
    slower = [value * 1.2 for value in A]
    assert verdict("op_p50_ms", A, slower, 0.10)["verdict"] == "regressed"
    assert verdict("op_p50_ms", A, [v * 0.8 for v in A], 0.10)["verdict"] == "improved"


def test_within_the_bound_is_unchanged_and_beyond_it_regressed():
    assert verdict("ops_per_s", A, [v * 0.95 for v in A], 0.10)["verdict"] == "unchanged"
    assert verdict("ops_per_s", A, [v * 0.85 for v in A], 0.10)["verdict"] == "regressed"


def test_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    result = verdict("ops_per_s", noisy, list(reversed(noisy)), 0.10)
    assert result["a_spread"] > 0.10
    assert result["verdict"] == "unresolved"


def test_a_a_is_neither_improved_nor_regressed():
    assert verdict("ops_per_s", A, list(A), 0.10)["verdict"] == "unchanged"
    assert verdict("fsr.self_us_per_op", A, list(A))["verdict"] == "unchanged"
