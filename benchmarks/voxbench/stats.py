"""Order statistics for the benchmark report."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Percentile ``q`` (0..100) by linear interpolation between order statistics.

    Matches ``numpy.percentile``'s default method.  An empty input gives 0.0,
    the value the report uses for a quantity the workload never produced.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if xs[lo] == xs[hi]:  # also keeps two infinities from interpolating to NaN
        return float(xs[lo])
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def median(values) -> float:
    return percentile(values, 50.0)
