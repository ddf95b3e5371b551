"""The station agent's durable, incarnation-fenced checkpoint store."""

import os
import threading

import pytest

from repro.service import FencedCheckpointStore

#: The job key and incarnation each single-image test saves under.
JOB = ("#1", 1)


class TestCheckpointStores:
    def test_save_load_roundtrip(self, tmp_path):
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, {"step": 41, "data": [1, 2, 3]})
        assert store.load(*JOB) == {"step": 41, "data": [1, 2, 3]}

    def test_load_missing_is_none(self, tmp_path):
        store = FencedCheckpointStore(tmp_path)
        assert store.load(*JOB) is None

    def test_discard(self, tmp_path):
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, 7)
        store.discard(JOB[0])
        assert store.load(*JOB) is None

    def test_new_save_supersedes(self, tmp_path):
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, 1)
        store.save(*JOB, 2)
        assert store.load(*JOB) == 2

    def test_unpicklable_state_rejected(self, tmp_path):
        store = FencedCheckpointStore(tmp_path)
        with pytest.raises(TypeError):
            store.save(*JOB, threading.Lock())
        assert store.load(*JOB) is None

    def test_file_store_atomic(self, tmp_path):
        # One finished image and no tmp file; after discard, nothing.
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, list(range(100)))
        assert os.listdir(tmp_path) == ["job-1.i1.ckpt"]
        store.discard(JOB[0])
        assert os.listdir(tmp_path) == []

    def test_state_isolation(self, tmp_path):
        # Mutating the loaded state must not affect the stored copy.
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, [1, 2])
        loaded = store.load(*JOB)
        loaded.append(3)
        assert store.load(*JOB) == [1, 2]

    def test_incarnations_order_numerically(self, tmp_path):
        # As text "i10" sorts before "i9"; the fence compares numbers.
        store = FencedCheckpointStore(tmp_path)
        store.save("#1", 9, "nine")
        store.save("#1", 10, "ten")
        assert store.load("#1", 10) == "ten"
        assert store.load("#1", 9) == "nine"


class TestDurableCheckpointWrites:
    def test_fsync_file_before_rename_then_dir(self, tmp_path, monkeypatch):
        # Durability ordering: data fsync -> rename -> directory fsync.
        # Any other order can surface a zero-length or missing file
        # after power loss even though save() returned.
        store = FencedCheckpointStore(tmp_path)
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
        store.save(*JOB, {"step": 1})
        assert [c[0] for c in calls] == ["fsync", "replace", "fsync"]
        assert calls[0] == ("fsync", "file")
        assert calls[2] == ("fsync", "dir")

    def test_torn_write_leaves_previous_checkpoint(self, tmp_path):
        # A pickle that dies partway through the tmp file must neither
        # replace nor corrupt the previous good image.
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, {"step": 41})

        class TearsMidPickle:
            def __reduce__(self):
                raise OSError("disk died mid-write")

        with pytest.raises(OSError):
            store.save(*JOB, {"step": 42, "payload": TearsMidPickle()})
        assert store.load(*JOB) == {"step": 41}
        # No half-written tmp litter left behind either.
        leftovers = [name for name in os.listdir(tmp_path)
                     if not name.endswith(".ckpt")]
        assert leftovers == []

    def test_truncated_tmp_never_promoted(self, tmp_path, monkeypatch):
        # Even if the crash happens *after* pickling but before the
        # rename (simulated by a failing fsync), the old image survives.
        store = FencedCheckpointStore(tmp_path)
        store.save(*JOB, {"step": 7})
        real_fsync = os.fsync

        def failing_fsync(fd):
            raise OSError("power cut at fsync")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError):
            store.save(*JOB, {"step": 8})
        monkeypatch.setattr(os, "fsync", real_fsync)
        assert store.load(*JOB) == {"step": 7}
