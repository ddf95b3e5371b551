"""Discrete-event simulation kernel for the Condor reproduction.

Public surface:

* :class:`Simulation` — clock + agenda; ``schedule``, ``spawn``, ``run``.
* :class:`Signal` — one-shot waitable condition.
* :class:`Process` — generator-based process with ``interrupt``.
* :mod:`repro.sim.randomness` — seeded streams and distributions.
* Time constants (:data:`MINUTE`, :data:`HOUR`, :data:`DAY`, :data:`WEEK`)
  so scheduler code reads like the paper ("every two minutes").
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Simulation": "kernel",
    "Signal": "events",
    "Process": "process",
    "EventHandle": "events",
    "SimulationError": "errors", "Interrupted": "errors",
    "StopProcess": "errors", "SignalAlreadyFired": "errors",
    "RandomStream": "randomness", "Distribution": "randomness",
    "Constant": "randomness", "Uniform": "randomness",
    "Exponential": "randomness", "Hyperexponential": "randomness",
    "LogNormal": "randomness", "Mixture": "randomness",
    "fit_hyperexponential": "randomness",
    "SECOND": "kernel", "MINUTE": "kernel", "HOUR": "kernel",
    "DAY": "kernel", "WEEK": "kernel",
})
