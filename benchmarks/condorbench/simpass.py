"""One pass of a simulator workload, in a process of its own.

Run as ``python -m condorbench.simpass '<json spec>'``; prints one JSON
object.  A fresh process per pass gives each pass its own peak RSS and
makes set-up time the whole road to a runnable experiment: interpreter
start, imports, construction.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time

from condorbench import workloads
from condorbench.reference import Pace, speed
from condorbench.trace import SimTracer

#: Kernel calls in each burst around the ops-plane phases (≈ 130 ms).
OPS_BURST = 80
#: Where the traced pass books the reference kernel (not a layer).
REFERENCE_LAYER = "bench.reference"


def simulated_digest(run):
    """sha256 over the *simulated* statistics of a finished run.

    Headline metrics plus per-user submitted/completed counts — not event
    counts, which an optimisation may legitimately reduce.
    """
    # validation would pull in scipy when it is installed (over a second
    # per pass) for a confidence interval nobody asks for here; it
    # documents scipy as optional, so the import is refused.
    sys.modules.setdefault("scipy", None)
    from repro.analysis.validation import headline_metrics

    per_user = {}
    for job in run.jobs:
        row = per_user.setdefault(job.user, [0, 0])
        row[0] += 1
        row[1] += bool(job.finished)
    blob = json.dumps({"headline": headline_metrics(run),
                       "users": per_user},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def run_pass(spec):
    from repro.analysis.experiment import ExperimentRun
    from repro.core.invariants import InvariantChecker
    from repro.sim.errors import SimulationError
    from repro.telemetry import TraceStore, replay_trace

    name = spec["workload"]
    recorded = workloads.WORKLOADS[name]["recorded"]
    kwargs = workloads.sim_kwargs(name, spec["quick"])
    trace_path = db_path = None
    if recorded:
        trace_path = os.path.join(spec["workdir"], "trace.jsonl")
        db_path = os.path.join(spec["workdir"], "ops.sqlite")
        kwargs["trace_path"] = trace_path

    tracer = SimTracer().install() if spec["trace"] else None
    gc.collect()
    traced_from = time.perf_counter()
    exp = ExperimentRun(seed=spec["seed"], **kwargs)
    ready_t = time.monotonic()

    # Marker events split the run into SIM_STEPS equal steps of simulated
    # time; each one runs the reference kernel, whose cost is taken out
    # of the timings and whose speed rescales them (see reference.py).
    pace = Pace()
    mark = (pace.mark if tracer is None else
            tracer.span(REFERENCE_LAYER, "reference.kernel", pace.mark))
    step = exp.horizon / workloads.SIM_STEPS
    for k in range(1, workloads.SIM_STEPS):
        exp.sim.schedule_at(k * step, mark)
    start = time.perf_counter()
    exp.execute()
    end = time.perf_counter()
    run_speed = speed(pace.calls, pace.seconds)
    starts = [start] + [done for _begun, done in pace.spans]
    ends = [begun for begun, _done in pace.spans] + [end]
    phases = {"execute_s": (end - start - pace.seconds) * run_speed}
    out = {
        "ready_t": ready_t,
        "speed": run_speed,
        "steps_ms": [(b - a) * 1e3 * run_speed
                     for a, b in zip(starts, ends)],
    }

    checks = {}
    store = None
    if recorded:
        # The ops-plane calls cannot be interleaved, so bursts of the
        # kernel bracket them.
        store = TraceStore(db_path)
        before = pace.burst(OPS_BURST)
        added, ingest_s = _timed(store.ingest_file, trace_path)
        between = pace.burst(OPS_BURST)
        summary, summary_s = _timed(lambda: store.summary().headline())
        replay = (replay_trace if tracer is None else tracer.span(
            "telemetry.trace", "replay_trace", replay_trace))
        replayed, replay_s = _timed(lambda: replay(trace_path).headline())
        after = pace.burst(OPS_BURST)
        phases["ingest_s"] = ingest_s * (before + between) / 2.0
        phases["summary_s"] = summary_s * (between + after) / 2.0
        phases["replay_s"] = replay_s * (between + after) / 2.0
        out["ops_speed"] = (before + between + after) / 3.0
    out["wall_s"] = sum(phases.values())
    out["traced_wall_s"] = (time.perf_counter() - traced_from
                            - pace.seconds)
    out["pass_speed"] = speed(pace.calls, pace.seconds)
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.remove()

    # Everything below is outside the timed window.
    if recorded:
        again, reingest_s = _timed(store.ingest_file, trace_path)
        phases["reingest_noop_s"] = reingest_s * after
        checks["summary_equals_replay"] = summary == replayed
        checks["reingest_adds_nothing"] = again == 0
        checks["ingested_every_record"] = added == summary["events"]
        out["trace_sha256"] = _file_sha256(trace_path)
        out["trace_bytes"] = os.path.getsize(trace_path)
        out["trace_records"] = added
        store.close()
        out["db_bytes"] = os.path.getsize(db_path)
    try:
        InvariantChecker(exp.system).check()
        checks["invariants"] = True
    except SimulationError as exc:
        checks["invariants"] = False
        out["invariant_error"] = str(exc)
    out["digest"] = simulated_digest(exp)
    out["checks"] = checks
    out["phases"] = phases

    snapshot = exp.metrics.snapshot()

    def metric(key, field="value"):
        return (snapshot.get(key) or {}).get(field) or 0

    network = exp.system.network
    out["counts"] = {
        "sim.kernel.events": (exp.sim.events_dispatched
                              - (workloads.SIM_STEPS - 1)),
        "net.network.messages": network.messages_sent,
        "net.network.mb_transferred": network.bytes_transferred_mb,
        "core.coordinator.cycles": metric("coordinator.cycles"),
        "core.coordinator.grants": metric("coordinator.grants"),
        "core.coordinator.preemptions": metric("coordinator.preemptions"),
        "core.coordinator.probes_sent": metric("coordinator.probes_sent"),
        "core.coordinator.updates_applied":
            metric("coordinator.updates_applied"),
        "core.coordinator.cycle_s_sum":
            metric("coordinator.cycle_seconds", "sum"),
        "remote_unix.vacate_checkpoints": metric("checkpoint.vacate"),
        "remote_unix.image_mb_sum": metric("checkpoint.image_mb", "sum"),
        "workload.jobs_submitted": len(exp.jobs),
        "workload.jobs_completed": len(exp.completed_jobs),
        "telemetry.events.emitted": exp.telemetry.events_emitted,
        "stations": len(exp.specs),
    }
    if tracer is not None:
        out["layers"] = {layer: {"calls": calls, "self_s": self_s}
                         for layer, (calls, self_s)
                         in tracer.layers().items()}
        if spec.get("spans_out"):
            tracer.dump(spec["spans_out"])
    return out


def main(argv):
    spec = json.loads(argv[0])
    print(json.dumps(run_pass(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
