"""Microbenchmarks of the simulation substrate itself."""

import pytest

from repro.net import Network, Node
from repro.sim import RandomStream, Simulation
from repro.sim.randomness import Exponential
from repro.telemetry import TelemetryHub, kinds


def test_event_dispatch_throughput(benchmark):
    """Raw kernel events per benchmark round (100k timer firings)."""

    def run():
        sim = Simulation()

        def chain(n):
            if n:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 100_000)
        sim.run()
        return sim.events_dispatched

    assert benchmark(run) == 100_001


def test_process_switch_throughput(benchmark):
    """Generator-process timeouts (10k yields across 10 processes)."""

    def run():
        sim = Simulation()

        def ticker():
            for _ in range(1000):
                yield 1.0

        for _ in range(10):
            sim.spawn(ticker())
        sim.run()
        return sim.events_dispatched

    assert benchmark(run) >= 10_000


def test_rpc_roundtrip_throughput(benchmark):
    """Network RPC round trips (1k polls of one node)."""

    def run():
        sim = Simulation()
        net = Network(sim)
        node = Node("server")
        node.register_handler("poll", lambda payload: 42)
        net.attach(node)
        answers = []
        for _ in range(1000):
            net.rpc("server", "poll", callback=answers.append)
        sim.run()
        return len(answers)

    assert benchmark(run) == 1000


@pytest.mark.parametrize("subscribers", [0, 1, 5])
def test_telemetry_emit_throughput(benchmark, subscribers):
    """Telemetry hub emissions per round (50k events) as subscriber
    count grows — the per-event cost the month simulation pays."""
    hub = TelemetryHub()
    sink = []
    for _ in range(subscribers):
        hub.subscribe(kinds.JOB_PLACED, lambda event: sink.append(event.seq))

    def run():
        sink.clear()
        for _ in range(50_000):
            hub.emit(kinds.JOB_PLACED, source="ws-1", job=None, host="ws-1")
        return hub.events_emitted

    assert benchmark(run) >= 50_000
    assert len(sink) == 50_000 * subscribers


def test_distribution_sampling_throughput(benchmark):
    """Hyperexponential sampling rate (100k draws)."""
    stream = RandomStream(1)
    dist = Exponential(5.0)

    def run():
        return sum(dist.sample(stream) for _ in range(100_000))

    assert benchmark(run) > 0
