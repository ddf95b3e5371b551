"""What a run leaves behind and what a station pays for.

Two properties of the simulator that are easy to lose without noticing
(DESIGN §4, "Message path: one record per exchange"):

* **no cyclic garbage** — every message exchange (and every coordinator
  probe round, batched or, under jitter, one RPC per target) is one
  slotted record freed by reference count, so a whole run hands the
  cycle collector nothing.  A per-message closure web (25 objects per
  pushed delta) once made the collector a fifth of a 5 000-station day.
* **draw-on-demand streams** — a stream that never draws is its seed and
  path (the retry-jitter stream of a station on a healthy network), and
  one that draws a few dozen values a day (an owner's) holds only its
  next draws: a station keeps no Mersenne Twister alive.
"""

import gc
import random

from repro.analysis.experiment import ExperimentRun
from repro.core.config import CondorConfig
from repro.faults import ChaosInjector, ChaosSchedule, LossBurst
from repro.sim import HOUR, RandomStream
from repro.telemetry import kinds


def cyclic_garbage_of(exp):
    """Objects only the cycle collector could free after ``exp`` ran."""
    gc.collect()
    gc.disable()
    try:
        exp.execute()
        return gc.collect()
    finally:
        gc.enable()


def test_a_pool_day_with_a_loss_burst_leaves_no_cyclic_garbage():
    exp = ExperimentRun(
        seed=5, days=1, stations=240, job_scale=0.3,
        config=CondorConfig(max_machines_per_station=6,
                            coordinator_mode="delta"))
    net = exp.system.network
    net.loss_stream = RandomStream(5, "net.loss")
    ChaosInjector(exp.sim, exp.system, ChaosSchedule("burst", [
        LossBurst(0.6, at=10 * HOUR, duration=0.5 * HOUR),
    ])).start()

    assert cyclic_garbage_of(exp) == 0

    # The day exercised what it claims to cover.
    snapshot = exp.metrics.snapshot()
    assert snapshot["coordinator.grants"]["value"] > 0
    assert snapshot["checkpoint.vacate"]["value"] > 0
    assert exp.completed_jobs
    assert net.messages_dropped > 0
    assert exp.telemetry.counts[kinds.MESSAGE_RETRY] > 0
    assert exp.telemetry.counts[kinds.MESSAGE_GIVE_UP] > 0


def test_a_jittered_day_leaves_no_cyclic_garbage():
    """With jittered latency the coordinator's probe round fans out as
    one RPC per target, each ticket calling back into the round; a
    finished round must not stay reachable from its own tickets."""
    exp = ExperimentRun(
        seed=9, days=1, stations=60, job_scale=0.3,
        config=CondorConfig(max_machines_per_station=6,
                            coordinator_mode="delta"))
    net = exp.system.network
    net.latency_jitter = 0.004
    net.jitter_stream = RandomStream(9, "net.jitter")

    assert cyclic_garbage_of(exp) == 0

    snapshot = exp.metrics.snapshot()
    assert snapshot["coordinator.probes_sent"]["value"] > 0
    assert snapshot["coordinator.grants"]["value"] > 0
    assert exp.completed_jobs


def test_four_days_of_the_paper_cluster_leave_no_cyclic_garbage():
    exp = ExperimentRun(seed=42, days=4)
    assert cyclic_garbage_of(exp) == 0
    assert exp.completed_jobs


def test_a_station_builds_only_the_generators_it_draws_from(monkeypatch):
    built = []

    class Counted(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(random, "Random", Counted)
    stations = 150
    exp = ExperimentRun(seed=3, days=1, stations=stations, job_scale=0.2,
                        config=CondorConfig(coordinator_mode="delta"))
    # One throwaway busyness draw per station, plus a few shared streams.
    assert len(built) <= stations + 32

    exp.system.start()
    retry_streams = [scheduler._retry.stream
                     for scheduler in exp.system.schedulers.values()]
    assert len(retry_streams) == stations
    assert not any("_rng" in vars(stream) for stream in retry_streams)


def live_generators():
    return [obj for obj in gc.get_objects() if isinstance(obj, random.Random)]


def test_a_pool_day_keeps_no_owner_generator():
    # Held, so no generator made by the run can reuse an older one's id.
    older = live_generators()
    exp = ExperimentRun(
        seed=42, days=1, stations=300, job_scale=0.1,
        config=CondorConfig(max_machines_per_station=6,
                            coordinator_mode="delta"))
    exp.execute()
    seen = {id(obj) for obj in older}
    kept = [obj for obj in live_generators() if id(obj) not in seen]
    # A few heavy workload streams, not one generator per station.
    assert len(kept) <= 10
    assert len(exp.system.stations) == 300
