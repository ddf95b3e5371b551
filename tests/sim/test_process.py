"""Unit tests for generator-based processes: each yield is a delay."""

import pytest

from repro.sim import Simulation, SimulationError


def test_process_runs_timeouts():
    sim = Simulation()
    seen = []

    def proc():
        seen.append(sim.now)
        yield 5.0
        seen.append(sim.now)
        yield 2.5
        seen.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert seen == [0.0, 5.0, 7.5]


def test_spawn_requires_generator():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)


def test_a_send_and_close_stand_in_is_driven_like_a_generator():
    """The kernel drives a process only through ``send``, ``close`` and
    ``__name__`` — what a wrapper around a generator (a tracer's, say)
    has to offer."""

    class StandIn:
        __slots__ = ("__name__", "send", "close")

        def __init__(self, generator):
            self.__name__ = "stand-in"
            self.send = generator.send
            self.close = generator.close

    sim = Simulation()
    seen = []

    def proc():
        yield 2.0
        seen.append(sim.now)

    process = sim.spawn(StandIn(proc()))
    sim.run()
    assert seen == [2.0]
    assert process.name == "stand-in"


def test_negative_yield_is_error():
    sim = Simulation()

    def proc():
        yield -5.0

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_nan_yield_is_error_and_leaves_the_clock_alone():
    sim = Simulation()
    later = []

    def proc():
        yield float("nan")
        sim.schedule(1.0, later.append, sim.now)

    sim.spawn(proc())
    with pytest.raises(SimulationError, match="NaN"):
        sim.run()
    assert sim.now == 0.0
    assert later == []


def test_bad_yield_closes_the_generator():
    sim = Simulation()
    seen = []

    def proc():
        try:
            yield -1.0
        finally:
            seen.append("cleanup")

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()
    assert seen == ["cleanup"]


def test_yield_garbage_is_error():
    sim = Simulation()

    def proc():
        yield "not-a-wait-target"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_two_processes_interleave():
    sim = Simulation()
    seen = []

    def ticker(tag, period):
        for _ in range(3):
            yield period
            seen.append((tag, sim.now))

    sim.spawn(ticker("fast", 1.0))
    sim.spawn(ticker("slow", 2.5))
    sim.run()
    assert seen == [
        ("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
        ("fast", 3.0), ("slow", 5.0), ("slow", 7.5),
    ]
