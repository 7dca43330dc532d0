"""Summary statistics of repeated measurements."""

import statistics


def high_percentile(values):
    """(percentile, value) of the highest sample with at least ten samples
    beyond it, by nearest rank; None when there are fewer than 11 samples.

    With n sorted samples, the sample at 0-based index n - 11 is the
    highest with ten above it, and it sits at percentile 100 * (n - 10) / n.
    """
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def describe(values):
    """Median, high percentile and sample count of one timing."""
    out = {"median": statistics.median(values), "n": len(values)}
    hp = high_percentile(values)
    if hp is not None:
        out["p%.0f" % hp[0]] = hp[1]
    return out
