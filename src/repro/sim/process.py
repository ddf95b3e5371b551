"""Generator-based simulated processes.

A *process* is a Python generator driven by the kernel: each ``yield``
names a number of simulated seconds to sleep.  That is all a process
can wait on — everything else the simulator waits for (a reply, a
finished transfer, an owner's return) is a callback on the agenda.
"""

from repro.sim.errors import SimulationError


class Process:
    """A generator resumed by the kernel after each delay it yields.

    Created via :meth:`repro.sim.kernel.Simulation.spawn`.  The process
    starts at the current simulation time (after events already queued
    for this instant).  The generator is driven through ``send`` and
    ``close`` alone, so a stand-in offering just those can be spawned.
    """

    __slots__ = ("sim", "name", "_gen")

    def __init__(self, sim, generator, name=None):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__} "
                "(did you forget to call the generator function?)"
            )
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self._gen = generator
        sim.schedule(0.0, self._resume)

    def _resume(self):
        """Advance the generator to its next yield and sleep that long."""
        try:
            delay = self._gen.send(None)
        except StopIteration:
            return
        if type(delay) is float or isinstance(delay, (int, float)):
            if delay >= 0:                # False for NaN too
                self.sim.schedule(delay, self._resume)
                return
            problem = f"a negative or NaN delay ({delay})"
        else:
            problem = f"unsupported {type(delay).__name__!s}: {delay!r}"
        # Close the generator so its cleanup runs, then propagate:
        # kernel misuse should fail tests loudly, not vanish.
        self._gen.close()
        raise SimulationError(f"process {self.name} yielded {problem}")

    def __repr__(self):
        return f"<Process {self.name!r}>"
