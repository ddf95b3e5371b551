"""Generated histories and enumerated crash points over the job database.

:class:`JobDatabaseHistories` drives a :class:`JobDatabase` with random
sequences of every transition — the two fused shapes the daemon commits
(submit + place, exit + place) included, as well as a transaction that
raises and a close-and-reopen of the file — and checks it against a
plain-dict model after every step.

``test_a_crash_at_any_statement_keeps_each_fused_transition_whole`` runs
the two fused transitions in a child process that dies (``os._exit``)
at the k-th statement sqlite executes, for every k, and reopens what it
left behind.
"""

import os
import shutil
import sqlite3
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 multiple, rule)

import repro
from repro.service import jobdb
from repro.service.errors import StaleEpochError
from repro.service.jobdb import JobDatabase

AGENTS = ("a", "b", "c")
OWNERS = ("ann", "bob")
#: Who sends a report: the placement's (agent, incarnation), another
#: agent, or the placement before it.
CLAIMS = st.sampled_from(("owner", "stranger", "predecessor"))


class _Boom(Exception):
    """Raised inside a transaction on purpose."""


class JobDatabaseHistories(RuleBasedStateMachine):
    keys = Bundle("keys")

    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="jobdb-histories-")
        self.path = os.path.join(self.dir, "svc.sqlite")
        self.db = JobDatabase(self.path)
        self.epoch = 0
        self.next_id = 1
        self.jobs = {}          # key -> the model row
        self.queue = []         # queued keys, head first
        self.indices = {}
        self.counters = dict.fromkeys((
            "service_stale_results_rejected",
            "service_progress_regressions", "service_promotions"), 0)
        self.completed_by = {}  # key -> the (agent, incarnation) that did
        self.watermarks = {}    # key -> highest progress read back

    def teardown(self):
        self.db.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- the model ---------------------------------------------------------

    def _owns(self, key, agent, incarnation):
        job = self.jobs[key]
        return (job["state"] in jobdb.INFLIGHT_STATES
                and (job["agent"], job["incarnation"]) == (agent,
                                                           incarnation))

    def _claim(self, key, who):
        job = self.jobs[key]
        agent = job["agent"] or "a"
        if who == "owner":
            return agent, job["incarnation"]
        if who == "stranger":
            return "z", job["incarnation"]
        return agent, job["incarnation"] - 1

    def _epoch_for(self, stale):
        return self.epoch - 1 if stale else self.epoch

    def model_submit(self, owner):
        key = f"#{self.next_id}"
        self.next_id += 1
        self.jobs[key] = {"state": jobdb.SUBMITTED, "agent": None,
                          "incarnation": 0, "epoch": 0, "progress": 0,
                          "owner": owner}
        self.queue.append(key)
        return key

    def model_place(self, assignments, epoch, indices=None):
        placed = {}
        for key, agent in assignments:
            job = self.jobs.get(key)
            if job is None or job["state"] not in jobdb.QUEUED_STATES:
                continue
            job.update(state=jobdb.PLACED, agent=agent, epoch=epoch,
                       incarnation=job["incarnation"] + 1)
            if key in self.queue:
                self.queue.remove(key)
            placed[key] = job["incarnation"]
        if placed and indices:
            self.indices.update(indices)
        return placed

    def model_watermark(self, key, progress):
        job = self.jobs[key]
        if progress < job["progress"]:
            self.counters["service_progress_regressions"] += 1
            return False
        job.update(state=jobdb.CHECKPOINTED, progress=progress)
        return True

    def model_finish(self, key, agent, incarnation, progress, state):
        if not self._owns(key, agent, incarnation):
            self.counters["service_stale_results_rejected"] += 1
            return False
        if progress:
            self.model_watermark(key, progress)
        self.jobs[key]["state"] = state
        return True

    def model_vacate(self, key, requeue, agent=None, incarnation=None):
        job = self.jobs[key]
        if (job["state"] not in jobdb.INFLIGHT_STATES
                or agent not in (None, job["agent"])
                or incarnation not in (None, job["incarnation"])):
            return False
        job.update(state=jobdb.VACATED, agent=None)
        if requeue:
            self.queue.insert(0, key)
        return True

    def finish(self, key, who, progress, state):
        """complete/fail through the database and the model alike."""
        agent, incarnation = self._claim(key, who)
        rightful = self._owns(key, agent, incarnation)
        if state == jobdb.DONE:
            accepted = self.db.complete(key, agent, incarnation, result=1,
                                        progress=progress)
        else:
            accepted = self.db.fail(key, agent, incarnation, "boom",
                                    progress=progress)
        assert accepted == rightful
        assert accepted == self.model_finish(key, agent, incarnation,
                                             progress, state)
        if accepted:
            assert key not in self.completed_by
            self.completed_by[key] = (agent, incarnation)

    # -- rules ---------------------------------------------------------------

    @rule(target=keys, owner=st.sampled_from(OWNERS))
    def submit(self, owner):
        key = self.db.submit("m:f", owner=owner)
        assert key == self.model_submit(owner)
        return key

    @rule(picks=st.lists(st.tuples(keys, st.sampled_from(AGENTS)),
                         max_size=3),
          stale=st.booleans(), index=st.floats(-4.0, 4.0))
    def place_batch(self, picks, stale, index):
        epoch = self._epoch_for(stale)
        indices = {"ann": index}
        if stale:
            with pytest.raises(StaleEpochError):
                self.db.place_batch(picks, epoch, indices)
        else:
            assert (self.db.place_batch(picks, epoch, indices)
                    == self.model_place(picks, epoch, indices))

    @rule(key=keys, who=CLAIMS)
    def running(self, key, who):
        agent, incarnation = self._claim(key, who)
        expected = (self._owns(key, agent, incarnation)
                    and self.jobs[key]["state"] == jobdb.PLACED)
        assert self.db.running(key, agent, incarnation) == expected
        if expected:
            self.jobs[key]["state"] = jobdb.RUNNING

    @rule(key=keys, who=CLAIMS, progress=st.integers(0, 40))
    def checkpoint(self, key, who, progress):
        agent, incarnation = self._claim(key, who)
        expected = (self._owns(key, agent, incarnation)
                    and self.model_watermark(key, progress))
        assert self.db.checkpoint(key, agent, incarnation,
                                  progress) == expected

    @rule(key=keys, who=CLAIMS, progress=st.integers(0, 40))
    def complete(self, key, who, progress):
        self.finish(key, who, progress, jobdb.DONE)

    @rule(key=keys, who=CLAIMS, progress=st.integers(0, 40))
    def fail(self, key, who, progress):
        self.finish(key, who, progress, jobdb.FAILED)

    @rule(key=keys, requeue=st.booleans(), guarded=st.booleans(),
          who=CLAIMS)
    def vacate(self, key, requeue, guarded, who):
        agent, incarnation = (self._claim(key, who) if guarded
                              else (None, None))
        expected = self.model_vacate(key, requeue, agent, incarnation)
        assert self.db.vacate(key, requeue=requeue, agent=agent,
                              incarnation=incarnation) == expected
        if expected and requeue:
            owner = self.jobs[key]["owner"]
            assert self.db.queue_heads(owner, 1)[0][0] == key

    @rule(key=keys)
    def stop(self, key):
        job = self.jobs[key]
        expected = job["state"] not in jobdb.FINAL_STATES
        assert self.db.stop(key) == expected
        if expected:
            job["state"] = jobdb.STOPPED
            if key in self.queue:
                self.queue.remove(key)

    @rule(promotion=st.booleans())
    def bump_epoch(self, promotion):
        self.epoch += 1
        self.counters["service_promotions"] += promotion
        assert self.db.bump_epoch(promotion=promotion) == self.epoch

    @rule(target=keys, owner=st.sampled_from(OWNERS),
          agent=st.sampled_from(AGENTS), stale=st.booleans())
    def submit_and_place(self, owner, agent, stale):
        """The daemon's submit to an idle pool."""
        epoch = self._epoch_for(stale)
        if stale:
            with pytest.raises(StaleEpochError):
                with self.db.transaction():
                    key = self.db.submit("m:f", owner=owner)
                    self.db.place_batch([(key, agent)], epoch)
            return multiple()
        with self.db.transaction():
            key = self.db.submit("m:f", owner=owner)
            placed = self.db.place_batch([(key, agent)], epoch)
        assert key == self.model_submit(owner)
        assert placed == self.model_place([(key, agent)], epoch)
        return key

    @rule(key=keys, who=CLAIMS, refill=st.lists(keys, max_size=2),
          stale=st.booleans())
    def complete_and_place(self, key, who, refill, stale):
        """The daemon's exit report with the cycle that refills the
        slot (onto the reporting agent)."""
        agent, incarnation = self._claim(key, who)
        epoch = self._epoch_for(stale)
        assignments = [(other, agent) for other in refill]
        if stale:
            with pytest.raises(StaleEpochError):
                with self.db.transaction():
                    self.db.complete(key, agent, incarnation, progress=3)
                    self.db.place_batch(assignments, epoch)
            return
        rightful = self._owns(key, agent, incarnation)
        with self.db.transaction():
            accepted = self.db.complete(key, agent, incarnation, progress=3)
            placed = self.db.place_batch(assignments, epoch)
        assert accepted == rightful == self.model_finish(
            key, agent, incarnation, 3, jobdb.DONE)
        if accepted:
            assert key not in self.completed_by
            self.completed_by[key] = (agent, incarnation)
        assert placed == self.model_place(assignments, epoch)

    @rule(key=keys, owner=st.sampled_from(OWNERS))
    def raising_transaction(self, key, owner):
        with pytest.raises(_Boom):
            with self.db.transaction():
                self.db.submit("m:f", owner=owner)
                self.db.stop(key)
                self.db.bump_epoch(promotion=True)
                raise _Boom

    @rule()
    def reopen(self):
        self.db.close()
        self.db = JobDatabase(self.path)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def rows_match_the_model(self):
        for key, job in self.jobs.items():
            record = self.db.job(key)
            assert (record["state"], record["agent"], record["incarnation"],
                    record["progress"]) == (job["state"], job["agent"],
                                            job["incarnation"],
                                            job["progress"])
        assert self.db.inflight() == sorted(
            (key, job["agent"], job["incarnation"], job["epoch"],
             job["progress"], job["owner"])
            for key, job in self.jobs.items()
            if job["state"] in jobdb.INFLIGHT_STATES)

    @invariant()
    def queue_reads_match_the_model(self):
        assert [row[0] for row in self.db.queue()] == self.queue
        assert self.db.wanting_owners() == sorted(
            {self.jobs[key]["owner"] for key in self.queue})
        for owner in OWNERS:
            assert [row[0] for row in self.db.queue_heads(owner, 3)] == [
                key for key in self.queue
                if self.jobs[key]["owner"] == owner][:3]

    @invariant()
    def watermark_is_monotone(self):
        for key in self.jobs:
            progress = self.db.job(key)["progress"]
            assert progress >= self.watermarks.get(key, 0)
            self.watermarks[key] = progress

    @invariant()
    def completions_and_counters(self):
        assert {key for key, job in self.jobs.items()
                if job["state"] == jobdb.DONE} <= set(self.completed_by)
        assert self.db.epoch == self.epoch
        for name, value in self.counters.items():
            assert self.db.counter(name) == value
        assert self.db.load_owner_indices() == self.indices


JobDatabaseHistories.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
TestJobDatabaseHistories = JobDatabaseHistories.TestCase


# -- enumerated crash points ---------------------------------------------------

#: Runs in a child: the daemon's two fused transactions, dying at the
#: ``argv[2]``-th statement (never, for 0); prints how many it saw.
_CHILD = r"""
import os, sys
from repro.service.jobdb import JobDatabase

db = JobDatabase(sys.argv[1])
crash_at = int(sys.argv[2])
seen = 0


def trace(_statement):
    global seen
    seen += 1
    if seen == crash_at:
        os._exit(17)


db._db.set_trace_callback(trace)
with db.transaction():                          # a submit to an idle pool
    key = db.submit("m:f", owner="ann")
    db.place_batch([(key, "a")], 1)
with db.transaction():                          # its exit, refilling
    db.complete(key, "a", 1, result=1, progress=5)
    db.place_batch([("#1", "a")], 1, {"ann": 1.0, "bob": -1.0})
sys.stdout.write(str(seen))
sys.stdout.flush()
os._exit(0)
"""


def _child(path, crash_at):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", _CHILD, path,
                           str(crash_at)], env=env, capture_output=True,
                          text=True, timeout=60)


def _stage(path):
    """How far the child got: 0 (nothing), 1 (submit + place) or 2 (and
    exit + place) — asserting the file shows exactly one of them."""
    raw = sqlite3.connect(path)
    assert raw.execute("PRAGMA integrity_check").fetchone() == ("ok",)
    raw.close()
    db = JobDatabase(path)
    try:
        first, second = db.job("#1"), db.job("#2")
        rows = {key: (record["state"], record["agent"],
                      record["incarnation"], record["progress"])
                for key, record in (("#1", first), ("#2", second))
                if record is not None}
        stages = [
            {"#1": ("submitted", None, 0, 0)},
            {"#1": ("submitted", None, 0, 0), "#2": ("placed", "a", 1, 0)},
            {"#1": ("placed", "a", 1, 0), "#2": ("done", "a", 1, 5)},
        ]
        assert rows in stages
        stage = stages.index(rows)
        assert [row[0] for row in db.queue()] == (["#1"] if stage < 2
                                                  else [])
        assert db.wanting_owners() == (["bob"] if stage < 2 else [])
        assert db.load_owner_indices() == (
            {"ann": 1.0, "bob": -1.0} if stage == 2 else {})
        assert [row[0] for row in db.inflight()] == [[], ["#2"], ["#1"]][
            stage]
        assert db.counter("service_stale_results_rejected") == 0
        assert db.counter("service_progress_regressions") == 0
        assert db.epoch == 1
        return stage
    finally:
        db.close()


def test_a_crash_at_any_statement_keeps_each_fused_transition_whole(
        tmp_path):
    base = str(tmp_path / "base.sqlite")
    db = JobDatabase(base)
    db.bump_epoch()
    assert db.submit("m:f", owner="bob") == "#1"
    db.close()

    def run(crash_at):
        path = str(tmp_path / f"crash-{crash_at}.sqlite")
        shutil.copyfile(base, path)
        done = _child(path, crash_at)
        assert done.returncode == (17 if crash_at else 0), done.stderr
        return path, done.stdout

    path, seen = run(0)
    statements = int(seen)
    assert _stage(path) == 2
    stages = [_stage(run(k)[0]) for k in range(1, statements + 1)]
    # Every statement is a crash point; each transition is all or nothing
    # and they land in order: nothing, then the first, never the second
    # without the first (which is only whole once the child is done).
    assert stages == sorted(stages)
    assert set(stages) == {0, 1}
