"""Reading parameter-sensitivity sweeps.

:func:`repro.analysis.sweep.sweep_values` replays the fixed ablation
workload under a family of configs that differ in exactly one field;
the helpers here pull one metric out of its results and check how it
moves.  Used by the sensitivity benchmark.
"""


def metric_series(sweep_results, metric):
    """Extract ``[(value, summary[metric]), ...]`` from a sweep."""
    return [(value, summary[metric]) for value, summary in sweep_results]


def monotone(series, increasing=True, tolerance=0.0):
    """Whether the metric moves monotonically along the sweep."""
    values = [metric for _v, metric in series]
    if increasing:
        return all(b >= a - tolerance for a, b in zip(values, values[1:]))
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))
