import math
import statistics

import pytest

from stats import (
    INF_MS,
    interior,
    latencies_with_failures,
    ms,
    quartiles,
    supported_quantile,
    tail_percentile,
    window_bins,
)


def test_p99_needs_ten_samples_beyond_it():
    # 2000 samples: 20 lie beyond p99, so p99 it is.
    value, used = tail_percentile(range(2000), 0.99)
    assert used == 0.99 and value == 1979
    # 100 samples: only p90 has ten beyond it.
    value, used = tail_percentile(range(100), 0.99)
    assert used == pytest.approx(0.90) and value == 89
    # 12 samples cannot support any tail; the median is what is left.
    assert supported_quantile(12, 0.99) == 0.5


def test_failures_count_as_missing_every_limit():
    latencies = [0.002] * 980
    sample = latencies_with_failures(latencies, failed=20)  # 2% failed
    value, _ = tail_percentile(sample, 0.99)
    assert math.isinf(value)
    assert ms(value) == INF_MS  # JSON-safe stand-in
    # 0.5% failed stays below the p99 rank: the tail is still finite.
    value, _ = tail_percentile(latencies_with_failures([0.002] * 995, 5), 0.99)
    assert value == 0.002


def test_windows_are_whole_seconds_and_drop_ramp_and_drain():
    # 5 whole windows in [0, 5.4); the partial tail window is not a
    # window, and stamps outside the send window are nobody's.
    stamps = []
    for window, count in enumerate([100, 10, 20, 30, 100]):
        stamps += [window + (i + 0.5) / count for i in range(count)]
    stamps += [5.2] * 50 + [-0.5, 9.0]
    bins = window_bins(stamps, 0.0, 5.4)
    assert bins == [100, 10, 20, 30, 100]
    # Ramp-up and drain are dropped: the median of the rest is 20.
    assert interior(len(bins)) == [1, 2, 3]
    assert statistics.median(bins[i] for i in interior(len(bins))) == 20


def test_short_runs_keep_every_window_and_empty_ones_refuse():
    assert window_bins([0.1, 0.2, 1.5], 0.0, 2.0) == [2, 1]
    assert interior(2) == [0, 1]  # two windows: nothing to drop
    assert window_bins([0.1, 0.2, 0.3, 0.6], 0.0, 1.0, width=0.5) == [3, 1]
    with pytest.raises(ValueError):
        window_bins([0.1], 0.0, 0.5)


def test_quartiles_match_statistics_quantiles():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert quartiles(values) == (2.75, 5.5, 8.25)
