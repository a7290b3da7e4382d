"""Order statistics the benchmark reports: percentiles that say how
many samples stand behind them, window-median rates, quartile spreads.

Everything here is pure and seed-free so ``bench/tests`` can pin the
rules the end-to-end numbers are computed by.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: beyond it; otherwise the highest percentile that has them is used.
MIN_BEYOND = 10
#: JSON has no infinity; a percentile that lands on a failed request
#: (latency +inf: it missed every limit) is printed as this many ms.
INF_MS = 1e12


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def supported_quantile(n: int, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The highest quantile ≤ ``q`` with ``min_beyond`` samples above it.

    With too few samples for even the median to have that many beyond
    it, the median is what gets reported (and ``n`` beside it says why
    it should not be trusted).
    """
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(q, 1.0 - min_beyond / n))


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Tuple[float, float]:
    """``(value, quantile actually used)`` for the tail at ``q``.

    Failed requests enter ``values`` as ``math.inf`` — a failure misses
    every latency limit — so a tail that reaches into them reads inf.
    """
    ordered = sorted(values)
    used = supported_quantile(len(ordered), q, min_beyond)
    return percentile(ordered, used), used


def window_bins(
    stamps: Sequence[float], start: float, end: float, width: float = 1.0
) -> List[int]:
    """Completions per whole ``width``-second window tiling ``[start,
    end)`` from ``start``; a partial tail window is not a window."""
    count = int((end - start) / width + 1e-9)
    if count < 1:
        raise ValueError(
            f"send window [{start:.3f}, {end:.3f}) holds no whole "
            f"{width:g}s window"
        )
    bins = [0] * count
    for stamp in stamps:
        index = int((stamp - start) / width)
        if stamp >= start and index < count:
            bins[index] += 1
    return bins


def interior(count: int) -> List[int]:
    """Window indices with the first and last (ramp-up and drain)
    dropped, whenever that leaves at least one."""
    return list(range(1, count - 1)) if count >= 3 else list(range(count))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` has them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles of repeated drives (the isolated layers)."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def ms(seconds: Optional[float]) -> float:
    """Seconds → milliseconds, with the JSON-safe stand-in for inf."""
    if seconds is None or math.isinf(seconds):
        return INF_MS
    return seconds * 1e3


def latencies_with_failures(
    latencies: Sequence[float], failed: int
) -> List[float]:
    """Completed latencies plus one +inf per failed/unacked request."""
    return list(latencies) + [math.inf] * failed
