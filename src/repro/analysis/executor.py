"""Spawn-based process execution for multi-seed sweeps.

Embarrassingly-parallel month sweeps need the ``spawn`` start method
(fork would duplicate interpreter state the deterministic runs must not
inherit) and picklable work specs.  :func:`map_specs` runs a pure
function over independent specs, optionally across a spawn pool; the
serial fallback for one spec or ``jobs <= 1`` keeps tests and CI cheap.
"""

import multiprocessing


def map_specs(fn, specs, jobs=None):
    """Run ``fn`` over ``specs``, possibly in a spawn pool.

    Serial (in-process, deterministic, debuggable) when ``jobs`` is
    falsy or 1 or there is only one spec; otherwise a spawn pool of
    ``min(jobs, len(specs))`` processes.  Results come back in spec
    order either way.
    """
    specs = list(specs)
    if not specs:
        return []
    if not jobs or jobs <= 1 or len(specs) == 1:
        return [fn(spec) for spec in specs]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(jobs, len(specs))) as pool:
        return pool.map(fn, specs)
