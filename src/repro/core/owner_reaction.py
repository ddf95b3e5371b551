"""The paper's owner-return rule as one decision table (§2.1, §4).

A station's local scheduler reacts to three inputs about the foreign
job it hosts: its owner arriving or leaving, the grace timer firing,
and a priority preemption from the coordinator.

* Owner arrives while the job runs: suspend it at once and arm the
  grace timer.  In Butler mode (``kill_on_owner_return``) kill it.
* Owner leaves while it is suspended: cancel the timer and resume.
* Timer fires while it is suspended: checkpoint and vacate.
* Preemption: vacate at once, skipping the grace.

Pure and clock-free.  The caller passes the job's own state and carries
out the returned actions in order: ``("suspend",)``, ``("resume",)``,
``("arm", until)``, ``("cancel",)``, ``("vacate", reason)`` and
``("kill",)``.  Every other input returns ``[]``.
"""

#: The job states the table reads (the values of ``core.job``'s).
RUNNING = "running"
SUSPENDED = "suspended"

#: Vacate reasons recorded on JOB_VACATED events.
REASON_OWNER_RETURNED = "owner_returned"
REASON_PRIORITY = "priority_preemption"


class OwnerReaction:
    """Owner-return decisions for one station; keeps no per-job state."""

    __slots__ = ("grace_period", "kill_on_owner_return")

    def __init__(self, grace_period, kill_on_owner_return):
        self.grace_period = grace_period
        self.kill_on_owner_return = kill_on_owner_return

    def on_owner(self, state, active, now):
        if active and state == RUNNING:
            if self.kill_on_owner_return:
                return [("kill",)]
            return [("suspend",), ("arm", now + self.grace_period)]
        if not active and state == SUSPENDED:
            return [("cancel",), ("resume",)]
        return []

    def on_timer(self, state):
        if state == SUSPENDED:
            return [("vacate", REASON_OWNER_RETURNED)]
        return []

    def on_preempt(self, state):
        if state == RUNNING:
            return [("vacate", REASON_PRIORITY)]
        if state == SUSPENDED:
            return [("cancel",), ("vacate", REASON_PRIORITY)]
        return []
