"""Small, dependency-free statistics helpers.

Kept deliberately simple (no numpy import on the library's hot path);
benchmarks that want fancier analysis can use scipy on the raw data.

Lives at the package root and imports nothing above ``repro.errors``:
both :mod:`repro.obs` (which the protocol core imports) and
:mod:`repro.metrics` (which imports the cluster, hence the core) use
these, so any home inside either would close an import cycle.
``repro.metrics`` re-exports the names.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (silent 0 hides bugs)."""
    if not values:
        raise ConfigurationError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    if not values:
        raise ConfigurationError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ConfigurationError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile {q} out of [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        # The equality shortcut also guards against interpolation
        # underflow on subnormal values (found by hypothesis).
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n is worst.

    Used to quantify the paper's fairness property (§4.2.3): feed it
    the per-sender delivered-message counts.
    """
    if not values:
        raise ConfigurationError("fairness index of empty sequence")
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0:
        return 1.0  # nobody sent anything: trivially fair
    return (total * total) / (len(values) * squares)
