"""Order statistics used for every reported timing."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between ranks.

    This is the "linear" rule of numpy.percentile: rank q/100 * (n - 1)
    into the sorted values.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def summary(values) -> dict:
    """Sample count, median and quartiles, as statistics.quantiles gives them."""
    n = len(values)
    if n == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": n, "median": med, "q1": q1, "q3": q3}
