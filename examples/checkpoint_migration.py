#!/usr/bin/env python
"""Anatomy of one checkpointed migration, step by step.

A single 4-hour job is placed on a colleague's workstation.  Two hours
in, the colleague returns.  This example narrates the exact sequence the
paper describes — immediate CPU handback, the 5-minute grace, the
checkpoint transfer, the idle wait for a new machine, and the resume —
and then prints the job's complete cost accounting: who paid what, in
seconds of CPU, for the remote execution.

Run:  python examples/checkpoint_migration.py
"""

from repro.core import CondorSystem, Job, StationSpec
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.sim import DAY, HOUR, MINUTE, Simulation
from repro.telemetry import kinds

OWNER_RETURNS_AT = 2 * HOUR


def main():
    sim = Simulation()
    specs = [
        StationSpec("home", owner_model=AlwaysActiveOwner()),
        # desk's owner returns two hours in and stays for the day.
        StationSpec("desk", owner_model=TraceOwner(
            [(OWNER_RETURNS_AT, DAY)]
        )),
        StationSpec("spare", owner_model=NeverActiveOwner()),
    ]
    system = CondorSystem(sim, specs, coordinator_host="home")

    def stamp():
        return f"t={sim.now / MINUTE:7.1f} min"

    log = []

    def note(message):
        log.append(f"  {stamp()}  {message}")

    def on(kind, describe):
        # Subscribers get the typed event; its fields are in .payload.
        system.telemetry.subscribe(kind, lambda event: note(
            describe(event.payload["job"], event.payload.get("host"))))

    on(kinds.JOB_PLACED, lambda job, host:
       f"image transferred, {job.name} executing on {host}")
    on(kinds.JOB_SUSPENDED, lambda job, host:
       f"owner back at {host}: CPU handed over IMMEDIATELY, job "
       f"suspended in place (5-minute grace starts)")
    on(kinds.JOB_VACATED, lambda job, host:
       f"grace expired: checkpoint written and shipped home from {host} "
       f"({job.image_mb():.2f} MB)")
    on(kinds.JOB_RESUMED, lambda job, host:
       f"owner left within grace, resumed on {host}")
    on(kinds.JOB_COMPLETED, lambda job, host: f"{job.name} completed")

    system.start()
    job = Job(user="ada", home="home", demand_seconds=4 * HOUR,
              syscall_rate=0.05, name="render")
    system.submit(job)
    note(f"{job.name} submitted at home (demand 4.0 h)")
    system.run(until=DAY)

    print("Timeline:")
    print("\n".join(log))

    print("\nWhere did the job actually run?")
    print(f"  placements: {' -> '.join(job.placements)}")
    print(f"  progress at the desk checkpoint: preserved — total remote "
          f"CPU {job.remote_cpu_seconds / HOUR:.2f} h for a "
          f"{job.demand_seconds / HOUR:.1f} h demand (nothing redone)")

    print("\nWhat did the home station pay to support it?")
    for kind, seconds in job.support_seconds.items():
        print(f"  {kind:>10}: {seconds:6.2f} s")
    print(f"  ---------  {job.total_support_seconds:6.2f} s total "
          f"-> leverage {job.leverage():.0f}")

    ledger = system.station("desk").ledger
    print("\nAnd the desk's owner?")
    print(f"  their own use of the machine: "
          f"{ledger.totals['owner'] / HOUR:.1f} h, uninterrupted — the "
          f"foreign job held the CPU only while the desk was idle "
          f"({ledger.totals['remote_job'] / HOUR:.2f} h).")


if __name__ == "__main__":
    main()
