"""Exception types for the discrete-event simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""
