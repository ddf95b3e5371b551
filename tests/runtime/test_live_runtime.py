"""The checkpoint store and contract the station agent runs jobs under."""

import os
import threading
import types

import pytest

from repro.runtime import LiveCheckpointStore


def job_handle(job_id=1):
    """What a store keys an image by: the job's ``id``."""
    return types.SimpleNamespace(id=job_id)


class TestCheckpointStores:
    @pytest.mark.parametrize("store_factory", [
        lambda: LiveCheckpointStore(),
    ])
    def test_save_load_roundtrip(self, store_factory):
        store = store_factory()
        job = job_handle()
        store.save(job, {"step": 41, "data": [1, 2, 3]})
        assert store.load(job) == {"step": 41, "data": [1, 2, 3]}

    def test_load_missing_is_none(self, tmp_path):
        store = LiveCheckpointStore(root=tmp_path)
        assert store.load(job_handle()) is None

    def test_discard(self, tmp_path):
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        store.save(job, 7)
        store.discard(job)
        assert store.load(job) is None

    def test_new_save_supersedes(self, tmp_path):
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        store.save(job, 1)
        store.save(job, 2)
        assert store.load(job) == 2

    def test_unpicklable_state_rejected(self, tmp_path):
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        with pytest.raises(TypeError):
            store.save(job, threading.Lock())
        assert store.load(job) is None

    def test_file_store_atomic_and_sized(self, tmp_path):
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        store.save(job, list(range(100)))
        assert store.size_bytes(job) > 0
        store.discard(job)
        assert store.size_bytes(job) == 0

    def test_state_isolation(self, tmp_path):
        # Mutating the loaded state must not affect the stored copy.
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        store.save(job, [1, 2])
        loaded = store.load(job)
        loaded.append(3)
        assert store.load(job) == [1, 2]


class TestDurableCheckpointWrites:
    def test_fsync_file_before_rename_then_dir(self, tmp_path, monkeypatch):
        # Durability ordering: data fsync -> rename -> directory fsync.
        # Any other order can surface a zero-length or missing file
        # after power loss even though save() returned.
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", "dir" if os.fstat(fd).st_mode & 0o40000
                          else "file"))
            return real_fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", "file"))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        store.save(job, {"step": 1})
        assert [c[0] for c in calls] == ["fsync", "replace", "fsync"]
        assert calls[0] == ("fsync", "file")
        assert calls[2] == ("fsync", "dir")

    def test_torn_write_leaves_previous_checkpoint(self, tmp_path):
        # A pickle that dies partway through the tmp file must neither
        # replace nor corrupt the previous good image.
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        store.save(job, {"step": 41})

        class TearsMidPickle:
            def __reduce__(self):
                raise OSError("disk died mid-write")

        with pytest.raises(OSError):
            store.save(job, {"step": 42, "payload": TearsMidPickle()})
        assert store.load(job) == {"step": 41}
        # No half-written tmp litter left behind either.
        leftovers = [name for name in os.listdir(tmp_path)
                     if not name.endswith(".ckpt")]
        assert leftovers == []

    def test_truncated_tmp_never_promoted(self, tmp_path, monkeypatch):
        # Even if the crash happens *after* pickling but before the
        # rename (simulated by a failing fsync), the old image survives.
        store = LiveCheckpointStore(root=tmp_path)
        job = job_handle()
        store.save(job, {"step": 7})
        real_fsync = os.fsync

        def failing_fsync(fd):
            raise OSError("power cut at fsync")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            store.save(job, {"step": 8})
        monkeypatch.setattr(os, "fsync", real_fsync)
        assert store.load(job) == {"step": 7}
