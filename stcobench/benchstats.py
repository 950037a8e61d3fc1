"""Statistics helpers of the STCO benchmark: percentiles with sample counts,
quartile spread, span self time and failure share. Pure functions; run.py
uses them and test_benchstats.py tests them."""

import math
import statistics


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile rank must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def summary(values, p=90):
    """Median and p-th percentile of the samples, with the sample count."""
    return {"p50": statistics.median(values), f"p{p}": percentile(values, p),
            "n": len(values)}


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartile spread needs at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its children. `spans` is a list of (name, start, end,
    parent_index) with parent_index -1 for roots; returns a list of floats
    in the same order."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        intervals = sorted((max(start, spans[c][1]), min(end, spans[c][2]))
                           for c in children[i])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans):
    """Total self time and call count per span name."""
    totals = {}
    for (name, _, _, _), st in zip(spans, self_times(spans)):
        total, count = totals.get(name, (0.0, 0))
        totals[name] = (total + st, count + 1)
    return totals


def failure_share(attempted, failed):
    """Failed operations as a share of those attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted."""
    return num / den if den else 0.0
