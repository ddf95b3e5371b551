#!/usr/bin/env python
"""Quickstart: a five-station Condor pool scavenging cycles.

Builds a small simulated cluster where two owners come and go, submits a
handful of long background jobs from one user's workstation, and prints
each job's journey — placements, suspensions, checkpoints — plus the
headline accounting the paper popularised (leverage: remote CPU obtained
per second of local support CPU).

Run:  python examples/quickstart.py
"""

from repro.core import CondorSystem, Job, StationSpec
from repro.machine import AlternatingOwner, AlwaysActiveOwner, NeverActiveOwner
from repro.sim import DAY, HOUR, MINUTE, RandomStream, Simulation
from repro.sim.randomness import Exponential, LogNormal
from repro.telemetry import kinds


def build_cluster(sim, stream):
    """One always-busy submitter plus four hosts with mixed owners."""
    specs = [
        # The submitting user's own machine: they are at the keyboard,
        # so it contributes no cycles — it only runs the shadows.
        StationSpec("submit-box", owner_model=AlwaysActiveOwner()),
        # Two dedicated machines (a compute server, a spare desk).
        StationSpec("pool-01", owner_model=NeverActiveOwner()),
        StationSpec("pool-02", owner_model=NeverActiveOwner()),
        # Two colleagues' desks: idle ~2/3 of the time in long stretches.
        StationSpec("desk-01", owner_model=AlternatingOwner(
            Exponential(2 * HOUR), LogNormal(HOUR, 0.6),
            stream.fork("desk-01"),
        )),
        StationSpec("desk-02", owner_model=AlternatingOwner(
            Exponential(3 * HOUR), LogNormal(45 * MINUTE, 0.6),
            stream.fork("desk-02"),
        )),
    ]
    return CondorSystem(sim, specs, coordinator_host="submit-box")


def watch_lifecycle(system):
    """Print every scheduling event as it happens.

    Subscribers get the typed event: when (``sim_time``), who
    (``source``), what (``kind``) and the event's own fields (``payload``).
    """

    def on(kind, describe):
        def show(event):
            job = event.payload["job"]
            print(f"[{event.sim_time / HOUR:6.2f} h] {job.name} "
                  f"{describe(job, event.payload)}")
        system.telemetry.subscribe(kind, show)

    on(kinds.JOB_PLACED, lambda job, p: f"started on {p['host']}")
    on(kinds.JOB_SUSPENDED, lambda job, p:
       f"suspended — owner returned to {p['host']}")
    on(kinds.JOB_RESUMED, lambda job, p:
       f"resumed — {p['host']}'s owner left again")
    on(kinds.JOB_VACATED, lambda job, p:
       f"checkpointed off {p['host']} ({p['reason']})")
    on(kinds.JOB_COMPLETED, lambda job, p:
       f"COMPLETED (demand {job.demand_seconds / HOUR:.1f} h, "
       f"{job.checkpoint_count} migrations)")


def main():
    sim = Simulation()
    stream = RandomStream(seed=2024)
    system = build_cluster(sim, stream)
    watch_lifecycle(system)
    system.start()

    print("Submitting 6 background jobs (3-8 h of CPU each) from "
          "submit-box...\n")
    jobs = []
    for i, demand_hours in enumerate((3, 8, 5, 4, 6, 3)):
        job = Job(user="grad-student", home="submit-box",
                  demand_seconds=demand_hours * HOUR,
                  syscall_rate=0.05, name=f"sim-run-{i}")
        system.submit(job)
        jobs.append(job)

    system.run(until=3 * DAY)
    system.finalize()

    print("\n--- Summary ------------------------------------------------")
    done = [job for job in jobs if job.finished]
    print(f"completed: {len(done)}/{len(jobs)} jobs")
    for job in done:
        turnaround = (job.completed_at - job.submitted_at) / HOUR
        print(
            f"  {job.name}: demand {job.demand_seconds / HOUR:.1f} h, "
            f"turnaround {turnaround:.1f} h, wait ratio "
            f"{job.wait_ratio():.2f}, leverage {job.leverage():.0f}"
        )
    support = sum(job.total_support_seconds for job in done)
    remote = sum(job.remote_cpu_seconds for job in done)
    print(
        f"\nTotal: {remote / HOUR:.1f} h of remote CPU obtained for "
        f"{support / MINUTE:.1f} min of local support CPU "
        f"(leverage {remote / support:.0f})"
    )
    print("The submit-box owner never gave up their machine — Condor "
          "hunted idle cycles elsewhere.")


if __name__ == "__main__":
    main()
