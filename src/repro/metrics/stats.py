"""Small statistics helpers shared by the metrics and analysis layers.

Pure functions over plain Python lists — no numpy dependency, so the
library core stays installable anywhere.
"""

import math

from repro.sim.errors import SimulationError


def mean(values):
    """Arithmetic mean; ``None`` for an empty sequence."""
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def median(values):
    """Sample median; ``None`` for an empty sequence."""
    ordered = sorted(values)
    if not ordered:
        return None
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values, q):
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise SimulationError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return None
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def cumulative_distribution(values, grid):
    """Fraction of ``values`` <= g for each g in ``grid`` (Fig. 2 curve)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return [0.0 for _ in grid]
    result = []
    index = 0
    for g in grid:
        while index < n and ordered[index] <= g:
            index += 1
        result.append(index / n)
    return result


def bucket_by(items, key, edges):
    """Group ``items`` into half-open buckets ``[edges[i], edges[i+1])``.

    Returns a list of ``(low, high, [items...])``; items below the first
    edge or at/above the last are dropped (callers choose edges to cover
    their data).
    """
    if sorted(edges) != list(edges) or len(edges) < 2:
        raise SimulationError(f"edges must be sorted with >= 2 entries: {edges}")
    buckets = [(edges[i], edges[i + 1], [])
               for i in range(len(edges) - 1)]
    for item in items:
        value = key(item)
        for low, high, members in buckets:
            if low <= value < high:
                members.append(item)
                break
    return buckets
