"""Error types of the live service plane."""


class ServiceError(Exception):
    """Base class for service-plane errors (daemon, agent, client)."""


class ProtocolError(ServiceError):
    """A wire frame was malformed, oversized, or truncated."""


class CheckpointUnreadable(ServiceError):
    """A checkpoint image would not restore; the store has set it aside
    so the job's next placement resumes from an older one."""


class VacateRequested(ServiceError):
    """Raised inside a job function (by ``ctx.checkpoint``) when the
    agent wants the job gone.  Job code should not catch this — the
    agent catches it, preserves the freshly saved state, and reports the
    job vacated so it resumes elsewhere."""


class StaleEpochError(ServiceError):
    """Something acted under an epoch a newer coordinator has
    superseded (a deposed coordinator placing, a stale message)."""


def join_thread(thread, timeout):
    """Join ``thread``; one still running after ``timeout`` seconds is a
    zombie holding real resources, raised rather than left behind."""
    thread.join(timeout)
    if thread.is_alive():
        raise ServiceError(f"thread {thread.name!r} still running "
                           f"{timeout}s after stop (zombie)")
