"""Error types of the live service plane."""

from repro.runtime.errors import LiveRuntimeError


class ServiceError(LiveRuntimeError):
    """Base class for service-plane errors (daemon, agent, client)."""


class ProtocolError(ServiceError):
    """A wire frame was malformed, oversized, or truncated."""


class CheckpointUnreadable(ServiceError):
    """A checkpoint image would not restore; the store has set it aside
    so the job's next placement resumes from an older one."""


class StaleEpochError(ServiceError):
    """Something acted under an epoch a newer coordinator has
    superseded (a deposed coordinator placing, a stale message)."""
