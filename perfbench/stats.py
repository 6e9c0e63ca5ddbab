"""The benchmark's own statistics: quantiles, the tail rule, median/MAD
and the max-rate ladder decision. Self-tested by test_stats.py."""

import statistics

# A tail percentile is only reported with at least this many samples
# beyond it; with fewer, the highest percentile that has them is used.
MIN_BEYOND = 10


def quantile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of `values`."""
    if not values:
        raise ValueError("quantile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_level(n, wanted, min_beyond=MIN_BEYOND):
    """The highest percentile level <= `wanted` that leaves at least
    `min_beyond` of `n` samples beyond it (0.5 at worst)."""
    if n <= 0:
        raise ValueError("no samples")
    return max(0.5, min(wanted, 1.0 - min_beyond / n))


def tail(values, wanted):
    """(level, value): the `wanted` quantile, lowered by tail_level when
    there are too few samples beyond it."""
    level = tail_level(len(values), wanted)
    return level, quantile(values, level)


def median(values):
    return statistics.median(values)


def mad(values):
    """Median absolute deviation from the median."""
    m = statistics.median(values)
    return statistics.median(abs(v - m) for v in values)


def rung_passes(light_p99_us, limit_us, early_p50_us, late_p50_us,
                lag_p99_us, lag_limit_us, failed):
    """One ladder rung: light p99 within the limit, no growing backlog
    (the last third's median latency is not more than twice the first
    third's plus 1 ms), the generator kept its schedule, nothing failed."""
    if failed or lag_p99_us > lag_limit_us:
        return False
    if late_p50_us > 2.0 * early_p50_us + 1000.0:
        return False
    return light_p99_us <= limit_us


def max_rate(ladder, probe):
    """Highest rate of the ascending `ladder` for which probe(rate) is
    True, by bisection (the probe is assumed to pass below a capacity and
    fail above it). Returns (rate or None, probed rates)."""
    lo, hi = -1, len(ladder)
    probed = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probed.append(ladder[mid])
        if probe(ladder[mid]):
            lo = mid
        else:
            hi = mid
    return (ladder[lo] if lo >= 0 else None), probed


def geometric_ladder(lowest, highest, step):
    """Fixed rates lowest * step**k up to highest, rounded to whole
    requests per second."""
    rates = []
    r = float(lowest)
    while r <= highest * (1 + 1e-9):
        rates.append(int(round(r)))
        r *= step
    return rates
