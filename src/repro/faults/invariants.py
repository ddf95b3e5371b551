"""The standing no-lost-jobs invariant, checked from the telemetry spine.

The paper's fault-tolerance promise (§2: a failed remote site's job "
should be restarted automatically at some other location to guarantee
job completion") reduces to three trace-checkable properties:

* every submitted job eventually **completes exactly once** (or was
  explicitly removed by its user);
* a job never emits a second ``job_completed`` — the at-least-once
  notice machinery must deduplicate, not double-complete;
* the durable checkpoint never regresses: once ``checkpointed_progress``
  reached *p*, no later event may observe it below *p* (crash recovery
  rolls *progress* back to the checkpoint, never the checkpoint back) —
  with one legitimate exception: a ``checkpoint_restore_fallback``
  (verify-on-restore rejected a corrupt image) lowers the floor to the
  older generation actually restored;
* resumed progress never exceeds the last **verified** checkpoint: at
  every ``job_placed`` the job's progress must sit at or below the
  verified-checkpoint floor, and never equal a resume point that chaos
  telemetry recorded as corrupted — a corrupt image is never resumed
  from.

:class:`NoLostJobsChecker` subscribes to the hub and evaluates these
live.  Violations are **collected, not raised**, inside callbacks — a
raising subscriber would be isolated by the hub and emitted as a
``telemetry_error`` event, perturbing the very traces the chaos suite
compares byte-for-byte.  Call :meth:`check_final` after the run (and
``system.finalize()``) to assert the end-state.
"""

from repro.sim.errors import SimulationError
from repro.telemetry import kinds


class NoLostJobsViolation(SimulationError):
    """The system lost, duplicated, or rolled back a job."""


#: Events whose payload carries a job whose checkpoint we can observe.
_OBSERVED_KINDS = (
    kinds.JOB_PLACED, kinds.JOB_VACATED, kinds.JOB_PERIODIC_CHECKPOINT,
    kinds.JOB_RESUMED, kinds.JOB_PREEMPTED, kinds.JOB_KILLED,
    kinds.HOST_LOST, kinds.JOB_PLACEMENT_FAILED,
    kinds.CHECKPOINT_IMAGE_LOST, kinds.CHECKPOINT_WRITE_TORN,
)


class NoLostJobsChecker:
    """Hub subscriber asserting exactly-once completion and durable progress.

    Attach before submitting the workload::

        checker = NoLostJobsChecker(system.telemetry)
        ... run ...
        checker.check_final()          # raises NoLostJobsViolation

    ``check_final(require_all_complete=False)`` relaxes the completion
    requirement (for runs cut off mid-flight) while still asserting no
    duplicates and no checkpoint regression.
    """

    def __init__(self, hub):
        #: job id -> Job object, in submission order.
        self.submitted = {}
        #: job id -> number of job_completed events seen.
        self.completions = {}
        #: job ids explicitly removed (allowed to never complete).
        self.removed = set()
        #: job id -> highest checkpointed_progress ever observed (lowered
        #: only by a verified restore fallback).
        self.checkpoint_floor = {}
        #: job id -> resume points (progress values) of images chaos
        #: telemetry reported corrupted and not yet known-discarded.
        self.poisoned = {}
        #: checkpoint_restore_fallback events seen (diagnostics).
        self.restore_fallbacks = 0
        #: Violation descriptions, in order of detection.
        self.violations = []
        hub.subscribe(kinds.JOB_SUBMITTED, self._on_submitted)
        hub.subscribe(kinds.JOB_COMPLETED, self._on_completed)
        hub.subscribe(kinds.JOB_REMOVED, self._on_removed)
        hub.subscribe(kinds.CHECKPOINT_RESTORE_FALLBACK,
                      self._on_restore_fallback)
        hub.subscribe(kinds.FAULT_INJECTED, self._on_fault_injected)
        hub.subscribe(kinds.JOB_PLACED, self._on_placed)
        for kind in _OBSERVED_KINDS:
            hub.subscribe(kind, self._on_observed)

    # ------------------------------------------------------------------
    # subscribers (collect, never raise — see module docstring)

    def _on_submitted(self, event):
        job = event.payload["job"]
        self.submitted[job.id] = job

    def _on_completed(self, event):
        job = event.payload["job"]
        count = self.completions.get(job.id, 0) + 1
        self.completions[job.id] = count
        if count > 1:
            self._violate(
                f"t={event.sim_time:.1f}: {job.name} completed {count} times"
            )
        self._observe_checkpoint(event.sim_time, job)

    def _on_removed(self, event):
        self.removed.add(event.payload["job"].id)

    def _on_observed(self, event):
        self._observe_checkpoint(event.sim_time, event.payload["job"])

    def _on_restore_fallback(self, event):
        """Verify-on-restore rejected the newest image: the floor drops
        to the older generation actually restored — the one place a
        lower ``checkpointed_progress`` is legitimate."""
        job = event.payload["job"]
        restored = event.payload["restored_progress"]
        self.restore_fallbacks += 1
        floor = self.checkpoint_floor.get(job.id, 0.0)
        if restored > floor + 1e-6:
            self._violate(
                f"t={event.sim_time:.1f}: {job.name} restore fallback "
                f"*raised* the floor {floor:.1f} -> {restored:.1f}"
            )
        self.checkpoint_floor[job.id] = restored
        # The failing generations were discarded by the fallback, so
        # their poisoned resume points can no longer be resumed from.
        self.poisoned.pop(job.id, None)

    def _on_fault_injected(self, event):
        """Record which resume points a CorruptCheckpoint poisoned."""
        for job_id, progress in event.payload.get("poisoned", ()):
            job = self.submitted.get(job_id)
            if job is not None and job.state == "placing":
                # The in-flight placement read (and verified) the image
                # before the bits flipped; resuming it is legitimate.
                # Any *future* placement re-verifies and must fall back.
                continue
            self.poisoned.setdefault(job_id, []).append(progress)

    def _on_placed(self, event):
        """Execution began: resumed progress must not exceed the last
        verified checkpoint, and must never be a poisoned resume point
        (a corrupt image resumed from is work built on garbage)."""
        job = event.payload["job"]
        floor = self.checkpoint_floor.get(job.id, 0.0)
        if job.progress > floor + 1e-6:
            self._violate(
                f"t={event.sim_time:.1f}: {job.name} resumed at "
                f"{job.progress:.1f} beyond verified checkpoint "
                f"{floor:.1f}"
            )
        for progress in self.poisoned.get(job.id, ()):
            if abs(job.progress - progress) < 1e-9:
                self._violate(
                    f"t={event.sim_time:.1f}: {job.name} resumed from a "
                    f"corrupt image at progress {progress:.1f}"
                )

    def _observe_checkpoint(self, t, job):
        floor = self.checkpoint_floor.get(job.id, 0.0)
        current = job.checkpointed_progress
        if current < floor - 1e-6:
            self._violate(
                f"t={t:.1f}: {job.name} checkpoint regressed "
                f"{floor:.1f} -> {current:.1f}"
            )
        elif current > floor:
            self.checkpoint_floor[job.id] = current

    def _violate(self, description):
        self.violations.append(description)

    # ------------------------------------------------------------------
    # verdicts

    @property
    def ok(self):
        return not self.violations

    def check_final(self, require_all_complete=True):
        """End-of-run verdict; raises :class:`NoLostJobsViolation`.

        Asserts every live-collected property held, and — unless
        ``require_all_complete=False`` — that every submitted job not
        removed completed exactly once and is flagged finished.
        """
        problems = list(self.violations)
        for job_id, job in self.submitted.items():
            if job_id in self.removed:
                continue
            count = self.completions.get(job_id, 0)
            if count > 1:
                continue      # already recorded as a duplicate above
            if require_all_complete and count == 0:
                problems.append(
                    f"{job.name} never completed (state {job.state})"
                )
            elif count == 1 and not job.finished:
                problems.append(
                    f"{job.name} emitted job_completed but is not finished"
                )
        if problems:
            raise NoLostJobsViolation(
                "no-lost-jobs invariant violated:\n  "
                + "\n  ".join(problems)
            )
        return len(self.submitted)

    def __repr__(self):
        return (f"<NoLostJobsChecker jobs={len(self.submitted)} "
                f"violations={len(self.violations)}>")
