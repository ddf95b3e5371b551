"""Durable pickle checkpoints for the live runtime.

One file per job, written atomically (tmp + rename) so a crash mid-write
never corrupts the previous good checkpoint — the property that lets the
runtime promise "at most the work since the last checkpoint is lost".
"""

import os
import pickle
import tempfile
import threading


class LiveCheckpointStore:
    """Pickle-file checkpoint store rooted at a directory."""

    def __init__(self, root=None):
        if root is None:
            root = tempfile.mkdtemp(prefix="condor-ckpt-")
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self._lock = threading.Lock()

    def _path(self, job_id):
        return os.path.join(self.root, f"job-{job_id}.ckpt")

    def save(self, job, state):
        """Atomically persist ``state`` as the job's restart point.

        The tmp file is flushed and fsync'd before the rename, and the
        directory entry is fsync'd after it (POSIX), so the atomicity
        holds across power loss — not just process crash.  A write that
        fails partway (torn pickle, full disk) leaves the previous good
        checkpoint untouched.
        """
        path = self._path(job.id)
        with self._lock:
            fd, tmp = tempfile.mkstemp(dir=self.root,
                                       prefix=f"job-{job.id}.")
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(state, f)
                    f.flush()
                    os.fsync(f.fileno())
                os.replace(tmp, path)
                self._fsync_dir()
            except Exception:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise

    def _fsync_dir(self):
        """Flush the directory entry so the rename itself is durable."""
        if not hasattr(os, "O_DIRECTORY"):   # non-POSIX: best effort
            return
        dfd = os.open(self.root, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(dfd)
        finally:
            os.close(dfd)

    def load(self, job):
        """The job's last checkpointed state, or ``None`` if none exists."""
        path = self._path(job.id)
        with self._lock:
            if not os.path.exists(path):
                return None
            with open(path, "rb") as f:
                return pickle.load(f)

    def discard(self, job):
        """Remove the job's checkpoint (after completion)."""
        path = self._path(job.id)
        with self._lock:
            if os.path.exists(path):
                os.unlink(path)

    def size_bytes(self, job):
        """On-disk size of the job's checkpoint, or 0."""
        path = self._path(job.id)
        with self._lock:
            if not os.path.exists(path):
                return 0
            return os.path.getsize(path)

    def __repr__(self):
        return f"<LiveCheckpointStore root={self.root!r}>"

