"""Live mini-Condor: real threads, real pickle checkpoints, one machine.

The documented substitution for the paper's transparent 4.3BSD process
checkpointing (see DESIGN.md): jobs checkpoint cooperatively at safe
points with identical recovery semantics — at most the work since the
last checkpoint is repeated when a worker's owner reclaims it.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "LiveCluster": "cluster",
    "LiveWorker": "worker", "SyntheticOwner": "worker",
    "LiveJob": "job", "CheckpointContext": "job",
    "LiveCheckpointStore": "checkpoint",
    "InMemoryCheckpointStore": "checkpoint",
    "LiveRuntimeError": "errors", "VacateRequested": "errors",
    "JobFailed": "errors",
    "PENDING": "job", "RUNNING": "job", "COMPLETED": "job",
    "FAILED": "job",
})
