#!/usr/bin/env python
"""Future-work features together: a PVM-style gang on a mixed VAX/SUN pool.

A four-way parallel program whose members were compiled for both
architectures is co-launched across a heterogeneous pool (future work
items 2 and 4 of the paper).  One member's host is reclaimed; that member
is checkpointed and — because its checkpoint binds it to the architecture
it started on — resumes only on a matching machine.

Run:  python examples/mixed_pool_parallel.py
"""

from repro.core import CondorSystem, GangJob, StationSpec
from repro.machine import AlwaysActiveOwner, NeverActiveOwner, TraceOwner
from repro.sim import DAY, HOUR, MINUTE, Simulation
from repro.telemetry import kinds


def main():
    sim = Simulation()
    specs = [StationSpec("home", owner_model=AlwaysActiveOwner())]
    # Two VAXstations, one dedicated SUN, a SUN desk whose owner returns
    # 90 minutes in, and a spare SUN that frees up for the migration.
    specs += [StationSpec(f"vax-{i}", owner_model=NeverActiveOwner(),
                          arch="vax") for i in range(2)]
    specs.append(StationSpec("sun-0", owner_model=NeverActiveOwner(),
                             arch="sun"))
    specs.append(StationSpec(
        "sun-desk", owner_model=TraceOwner([(90 * MINUTE, DAY)]),
        arch="sun",
    ))
    specs.append(StationSpec("sun-spare", owner_model=NeverActiveOwner(),
                             arch="sun"))
    system = CondorSystem(sim, specs, coordinator_host="home")

    def on(kind, describe):
        # Subscribers get the typed event; its fields are in .payload.
        def show(event):
            job = event.payload["job"]
            print(f"[{event.sim_time / MINUTE:6.1f} min] {job.name} "
                  f"{describe(job, event.payload.get('host'))}")
        system.telemetry.subscribe(kind, show)

    on(kinds.JOB_PLACED, lambda job, host:
       f"running on {host} ({system.station(host).arch} binary)")
    on(kinds.JOB_VACATED, lambda job, host:
       f"checkpointed off {host} — image is {job.locked_arch}-only now")
    on(kinds.JOB_COMPLETED, lambda job, host: "done")

    system.start()
    gang = GangJob(user="ada", home="home", demand_seconds=3 * HOUR,
                   width=4, name="pvm-solver",
                   architectures=("vax", "sun"))
    system.submit_gang(gang)
    print(f"submitted {gang.name}: width 4, binaries for vax+sun\n")
    sim.run(until=DAY)

    print(f"\ngang finished: {gang.finished}")
    print(f"co-launch delay: {gang.launch_delay() / MINUTE:.1f} min "
          f"(all four machines acquired in one coordinator cycle)")
    for member in gang.members:
        print(f"  {member.name}: {' -> '.join(member.placements)} "
              f"(arch-locked to {member.locked_arch}, "
              f"{member.checkpoint_count} migrations, "
              f"0 work redone)" if member.wasted_cpu_seconds == 0
              else f"  {member.name}: lost work!")


if __name__ == "__main__":
    main()
