"""Order statistics shared by the benchmark and its spread check."""

from __future__ import annotations

import statistics

# a tail percentile is only reported when at least this many samples lie
# beyond it, so one slow outlier cannot define it
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it.

    Returns ``(value, percentile, n)``, or ``None`` when there are too few
    samples for any such percentile.  With n samples the answer is the
    (TAIL_BEYOND + 1)-th largest value, at percentile
    100 * (n - TAIL_BEYOND) / n.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    return (float(ordered[n - TAIL_BEYOND - 1]), 100.0 * (n - TAIL_BEYOND) / n, n)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
