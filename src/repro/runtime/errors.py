"""Error types of the live (localhost) runtime."""


class LiveRuntimeError(Exception):
    """Base class for live-runtime errors."""


class VacateRequested(LiveRuntimeError):
    """Raised inside a job function (by ``ctx.checkpoint``) when the
    agent wants the job gone.  Job code should not catch this — the
    agent catches it, preserves the freshly saved state, and reports the
    job vacated so it resumes elsewhere."""

