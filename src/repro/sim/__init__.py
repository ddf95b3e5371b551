"""Discrete-event simulation kernel for the Condor reproduction.

Public surface:

* :class:`Simulation` — clock + agenda; ``schedule``, ``spawn``, ``run``.
  The simulator waits on two things only: time and callbacks.
* :class:`Process` — a generator that yields delays in seconds.
* :mod:`repro.sim.randomness` — seeded streams and distributions.
* Time constants (:data:`MINUTE`, :data:`HOUR`, :data:`DAY`, :data:`WEEK`)
  so scheduler code reads like the paper ("every two minutes").
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Simulation": "kernel",
    "Process": "process",
    "EventHandle": "events",
    "SimulationError": "errors",
    "RandomStream": "randomness", "Distribution": "randomness",
    "Constant": "randomness", "Uniform": "randomness",
    "Exponential": "randomness", "Hyperexponential": "randomness",
    "LogNormal": "randomness", "Mixture": "randomness",
    "fit_hyperexponential": "randomness",
    "SECOND": "kernel", "MINUTE": "kernel", "HOUR": "kernel",
    "DAY": "kernel", "WEEK": "kernel",
})
