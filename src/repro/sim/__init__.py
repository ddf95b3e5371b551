"""Discrete-event simulation kernel for the Condor reproduction.

Public surface:

* :class:`Simulation` — clock + agenda; ``schedule``, ``spawn``, ``run``.
* :class:`Signal` — one-shot waitable condition.
* :class:`Process` — generator-based process with ``interrupt``.
* :mod:`repro.sim.randomness` — seeded streams and distributions.
* Time constants (:data:`MINUTE`, :data:`HOUR`, :data:`DAY`, :data:`WEEK`)
  so scheduler code reads like the paper ("every two minutes").
"""

from repro.sim.errors import (
    Interrupted,
    SignalAlreadyFired,
    SimulationError,
    StopProcess,
)
from repro.sim.events import EventHandle, Signal
from repro.sim.kernel import Simulation
from repro.sim.process import Process
from repro.sim.randomness import (
    Bernoulli,
    BoundedPareto,
    Constant,
    DiscreteChoice,
    Distribution,
    Erlang,
    Exponential,
    Hyperexponential,
    LogNormal,
    Mixture,
    RandomStream,
    Shifted,
    Uniform,
    fit_hyperexponential,
)

#: One simulated second is the base unit; these are the derived constants.
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY

__all__ = [
    "Simulation",
    "Signal",
    "Process",
    "EventHandle",
    "SimulationError",
    "Interrupted",
    "StopProcess",
    "SignalAlreadyFired",
    "RandomStream",
    "Distribution",
    "Constant",
    "Uniform",
    "Exponential",
    "Hyperexponential",
    "Erlang",
    "LogNormal",
    "Mixture",
    "BoundedPareto",
    "Bernoulli",
    "DiscreteChoice",
    "Shifted",
    "fit_hyperexponential",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
]
