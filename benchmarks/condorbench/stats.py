"""The few order statistics the benchmark reports."""

import statistics


def percentile(values, p):
    """Linear-interpolated ``p``-th percentile (0–100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return statistics.median(values) if values else 0.0


def calmest_share(offsets, values, width, share):
    """The values that fall in the calmest ``share`` of a run's windows.

    The run is cut into windows of ``width`` seconds by each value's
    offset; the windows are ranked by their median value and the lowest
    ``share`` of them (at least one) are pooled.  A window holding less
    than half of what windows usually hold (the run's ragged end) is left
    out of the ranking.

    On a shared host noise comes in episodes and only ever adds time, so
    the pool is what the program did while the host left it alone; a
    change to the program moves every window alike, and so the pool.
    """
    windows = {}
    for offset, value in zip(offsets, values):
        windows.setdefault(int(offset // width), []).append(value)
    if not windows:
        return []
    usual = statistics.median(len(window) for window in windows.values())
    ranked = sorted((window for window in windows.values()
                     if 2 * len(window) >= usual), key=statistics.median)
    keep = max(1, round(len(ranked) * share))
    return [value for window in ranked[:keep] for value in window]
