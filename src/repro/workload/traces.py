"""Workload traces: export submitted jobs, replay them elsewhere.

A trace pins a workload exactly — same jobs, same sizes, same submit
times — so two scheduler configurations can be compared on identical
input (how all the ablation benchmarks work) and a run can be archived
as JSON alongside its results.
"""

import json

from repro.core.errors import SubmissionRefused
from repro.core.job import Job
from repro.remote_unix.segments import SegmentLayout
from repro.sim.errors import SimulationError


def job_to_record(job):
    """Serialise a job's *inputs* (not its outcome) as a plain dict."""
    layout = job.layout
    return {
        "user": job.user,
        "home": job.home,
        "demand_seconds": job.demand_seconds,
        "syscall_rate": job.syscall_rate,
        "submitted_at": job.submitted_at,
        "layout": {
            "text_kb": layout.text_kb,
            "data_kb": layout.data_kb,
            "bss_kb": layout.bss_kb,
            "stack_kb": layout.stack_kb,
            "data_growth_kb_per_cpu_hour": layout.data_growth_kb_per_cpu_hour,
        },
    }


def record_to_job(record):
    """Reconstruct a fresh Job from a trace record."""
    layout = SegmentLayout(**record["layout"])
    return Job(
        user=record["user"],
        home=record["home"],
        demand_seconds=record["demand_seconds"],
        layout=layout,
        syscall_rate=record["syscall_rate"],
    )


def export_trace(jobs):
    """Trace records for the given jobs, sorted by submit time."""
    records = [job_to_record(job) for job in jobs]
    for record in records:
        if record["submitted_at"] is None:
            raise SimulationError(
                "cannot trace a job that was never submitted"
            )
    records.sort(key=lambda r: r["submitted_at"])
    return records


def dump_trace(jobs, path):
    """Write a JSON trace file."""
    with open(path, "w") as f:
        json.dump(export_trace(jobs), f, indent=1)


def load_trace(path):
    """Read a JSON trace file back into records."""
    with open(path) as f:
        return json.load(f)


class TraceReplayer:
    """Replays a trace's submissions into a (fresh) system.

    Start before running the simulation; each record is submitted at its
    recorded time.  Refusals are counted, as in live generation.
    """

    def __init__(self, sim, system, records):
        self.sim = sim
        self.system = system
        self.records = sorted(records, key=lambda r: r["submitted_at"])
        self.jobs = []
        self.refused = 0
        self._started = False

    def start(self):
        if self._started:
            return
        self._started = True
        self.sim.spawn(self._run(), name="trace-replayer")

    def all_jobs(self):
        """Every successfully submitted job, in submission order."""
        return self.jobs

    def _run(self):
        for record in self.records:
            delay = record["submitted_at"] - self.sim.now
            if delay > 0:
                yield delay
            job = record_to_job(record)
            try:
                self.system.submit(job)
                self.jobs.append(job)
            except SubmissionRefused:
                self.refused += 1

    def __repr__(self):
        return (
            f"<TraceReplayer records={len(self.records)} "
            f"submitted={len(self.jobs)} refused={self.refused}>"
        )
