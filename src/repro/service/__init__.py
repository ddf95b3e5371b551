"""repro.service — the live service plane (PR 10).

A real coordinator daemon, station agents, and client verbs speaking
length-prefixed JSON over TCP, backed by a crash-safe sqlite job
database.  This is the paper's central-coordinator architecture run as
an actual long-lived service rather than a simulated or in-process one:
``kill -9`` the coordinator mid-placement and a restart (or warm
standby) recovers every job from disk, with epoch fencing keeping the
deposed coordinator harmless and incarnation fencing keeping zombie
jobs from clobbering their successors' checkpoints.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CoordinatorDaemon": "daemon",
    "FencedCheckpointStore": "agent",
    "JobDatabase": "jobdb",
    "ProtocolError": "errors",
    "ServiceClient": "client",
    "ServiceError": "errors", "StaleEpochError": "errors",
    "StandbyCoordinator": "daemon",
    "StationAgent": "agent",
})
