"""Summary statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p % of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest tail percentile that still has at least ten samples beyond it
    among n samples, or None when even the lowest candidate has fewer."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def describe(values) -> str:
    """Median, the tail percentile the sample count supports, and the count."""
    values = list(values)
    text = f"median {statistics.median(values):.6g}"
    p = tail_percentile(len(values))
    if p is not None:
        text += f", p{p:g} {percentile(values, p):.6g}"
    return text + f", n={len(values)}"


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
