"""Deterministic parallel fan-out for experiment sweeps.

Every multi-run study in the repo — seed-robustness checks, pool-size
scans, config-sensitivity sweeps, ablation grids — has the same shape:
N completely independent simulations followed by a cheap reduction.
This module gives them one executor:

* a **spec** is a small picklable description of one run (seed, days,
  config, which collector to apply);
* a **worker** is a module-level function that builds the run from the
  spec inside the worker process, executes it, applies the collector,
  and returns a compact result record — simulation objects never cross
  the process boundary;
* :func:`run_specs` fans specs out over a ``spawn`` pool and returns
  results **in input order**, so a parallel sweep is byte-for-byte the
  same as a serial one.

Determinism contract: each worker calls
:func:`repro.core.job.reset_job_ids` before building its run, so a run
produced by a worker is identical — job names, telemetry traces and all —
to the same spec executed serially in a fresh process.  The trace
determinism tests pin this.

``spawn`` (not ``fork``) is deliberate: workers import the package fresh
instead of inheriting the parent's module-level caches
(:data:`repro.analysis.experiment._CACHE`, job-id counters), which is
what makes the contract above hold on every platform.
"""

import dataclasses

from repro.analysis import paper
from repro.analysis.executor import map_specs
from repro.analysis.ablation import ABLATION_DAYS, ReplayRun, summarize
from repro.analysis.validation import headline_metrics
from repro.sim.errors import SimulationError

# ----------------------------------------------------------------------
# collectors
#
# A collector turns a finished run into the small dict the study needs.
# They are looked up *by name* so a spec stays picklable (a lambda or a
# bound method in the spec would break the spawn pool).


def _pool_metrics(run):
    """What the pool-size study records per cluster size."""
    from repro.metrics import jobs as job_metrics

    completed = run.completed_jobs
    host = run.system.coordinator.host_station
    return {
        "remote_hours": run.util.remote_hours(),
        "completed": len(completed),
        "avg_wait": job_metrics.average_wait_ratio(completed),
        "coordinator_fraction":
            host.ledger.totals["coordinator"] / run.horizon,
    }


#: Named result collectors: name -> callable(run) -> dict of scalars.
COLLECTORS = {
    "headline": headline_metrics,
    "ablation": summarize,
    "pool": _pool_metrics,
}


def register_collector(name, fn):
    """Register a custom ``callable(run) -> dict`` under ``name``."""
    COLLECTORS[name] = fn


def _collect(name, run):
    try:
        collector = COLLECTORS[name]
    except KeyError:
        raise SimulationError(f"unknown sweep collector {name!r}") from None
    return collector(run)


# ----------------------------------------------------------------------
# specs


@dataclasses.dataclass(frozen=True)
class MonthSpec:
    """One :class:`~repro.analysis.experiment.ExperimentRun`, described
    by value.  ``run_kwargs`` is a tuple of ``(name, value)`` pairs
    forwarded to the run constructor; every value must be picklable."""

    seed: int
    run_kwargs: tuple = ()
    collector: str = "headline"
    trace_path: str = None


@dataclasses.dataclass(frozen=True)
class VariantSpec:
    """One :class:`~repro.analysis.ablation.ReplayRun` over a fixed
    workload trace — the sensitivity/ablation unit of work."""

    records: tuple
    config: object = None
    policy: object = None
    seed: int = 42
    days: int = ABLATION_DAYS
    stations: int = paper.STATIONS
    collector: str = "ablation"


def month_spec(seed, collector="headline", trace_path=None, **run_kwargs):
    """Build a :class:`MonthSpec` from ``run_month``-style kwargs."""
    return MonthSpec(seed=seed, run_kwargs=tuple(sorted(run_kwargs.items())),
                     collector=collector, trace_path=trace_path)


# ----------------------------------------------------------------------
# workers (module-level: the spawn pool imports them by qualified name)


def run_spec(spec):
    """Execute one spec in *this* process; returns its result record.

    The single entry point both the serial path and the pool workers go
    through, so the two are identical by construction.
    """
    from repro.core.job import reset_job_ids

    reset_job_ids()
    if isinstance(spec, MonthSpec):
        from repro.analysis.experiment import ExperimentRun

        run = ExperimentRun(seed=spec.seed, trace_path=spec.trace_path,
                            **dict(spec.run_kwargs)).execute()
    elif isinstance(spec, VariantSpec):
        run = ReplayRun(list(spec.records), seed=spec.seed, days=spec.days,
                        stations=spec.stations, config=spec.config,
                        policy=spec.policy).execute()
    else:
        raise SimulationError(f"unknown sweep spec {spec!r}")
    return {
        "seed": spec.seed,
        "metrics": _collect(spec.collector, run),
        "events": run.sim.events_dispatched,
    }


def run_specs(specs, jobs=None):
    """Execute every spec; results come back **in input order**.

    ``jobs=None``/``0``/``1`` runs serially in-process (no pool, no
    pickling); ``jobs=N`` fans out over N ``spawn`` workers (via the
    shared :mod:`repro.analysis.executor`).  Results are independent of
    ``jobs`` — parallelism changes wall time only.
    """
    return map_specs(run_spec, specs, jobs=jobs)


# ----------------------------------------------------------------------
# convenience fronts for the common studies


def sweep_seeds(seeds, jobs=None, collector="headline", trace_dir=None,
                **run_kwargs):
    """One month-run per seed; returns ``[(seed, metrics), ...]``."""
    specs = [
        month_spec(
            seed, collector=collector,
            trace_path=(f"{trace_dir}/seed-{seed}.jsonl"
                        if trace_dir else None),
            **run_kwargs)
        for seed in seeds
    ]
    return [(record["seed"], record["metrics"])
            for record in run_specs(specs, jobs=jobs)]


def sweep_values(records, field, values, base_config=None, seed=42,
                 days=None, jobs=None, **variant_kwargs):
    """Replay ``records`` once per value of ``config.<field>``.

    Returns ``[(value, summary), ...]`` in input order.  ``days``
    defaults to the ablation harness default.  ``jobs=N`` runs the
    variants on N worker processes (results are identical to the serial
    run).
    """
    from repro.core.config import CondorConfig

    base = base_config or CondorConfig()
    if field not in {f.name for f in dataclasses.fields(CondorConfig)}:
        raise SimulationError(f"unknown CondorConfig field {field!r}")
    records = tuple(records)
    specs = [
        VariantSpec(
            records=records,
            config=dataclasses.replace(base, **{field: value}),
            seed=seed,
            **({"days": days} if days is not None else {}),
            **variant_kwargs,
        )
        for value in values
    ]
    results = run_specs(specs, jobs=jobs)
    return [(value, record["metrics"])
            for value, record in zip(values, results)]
