"""The paper's throughput-efficiency criterion, checked per class."""

from repro.rounds.analysis import measure_throughput, round_factory


def is_throughput_efficient(name, n, k, **factory_options):
    """The paper's §1 criterion: >= 1 completed broadcast per round."""
    result = measure_throughput(
        round_factory(name, **factory_options), n, k,
        warmup_rounds=300, window_rounds=1200,
    )
    return result.throughput >= 0.999


def test_fsr_is_efficient_everywhere():
    for k in (1, 2, 5):
        assert is_throughput_efficient("fsr", 5, k, t=1)


def test_paper_section2_claims_as_a_table():
    """§2's qualitative table, checked mechanically: FSR is the only
    class efficient across all sender patterns."""
    claims = {
        # protocol: (k=1, k=2, k=n)
        "fixed_sequencer": (False, False, False),
        "moving_sequencer": (False, False, False),
        "privilege": (False, False, False),
        "communication_history": (False, False, True),
        "destination_agreement": (False, False, False),
    }
    n = 6
    for name, expected in claims.items():
        measured = tuple(
            is_throughput_efficient(name, n, k) for k in (1, 2, n)
        )
        assert measured == expected, (name, measured)
    assert all(is_throughput_efficient("fsr", n, k, t=1) for k in (1, 2, n))
