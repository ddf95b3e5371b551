"""Tests for segments, checkpoints, and shadow syscall accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import SYSCALL, CpuLedger, Disk
from repro.remote_unix import (
    CHECKPOINT_CPU_S_PER_MB,
    LOCAL_SYSCALL_CPU_S,
    REMOTE_SYSCALL_CPU_S,
    CheckpointImage,
    CheckpointStore,
    SegmentLayout,
    ShadowProcess,
    breakeven_syscall_rate,
    checkpoint_cpu_cost,
    remote_syscall_load,
    typical_layout,
)
from repro.sim import RandomStream, Simulation, SimulationError


class TestSegments:
    def test_initial_size_is_segment_sum(self):
        layout = SegmentLayout(100, 200, 50, 30)
        assert layout.image_mb(0.0) * 1024 == pytest.approx(380)

    def test_image_grows_with_progress(self):
        layout = SegmentLayout(100, 200, 50, 30, data_growth_kb_per_cpu_hour=60)
        assert layout.image_mb(3600.0) > layout.image_mb(0.0)
        grown_kb = (layout.image_mb(3600.0) - layout.image_mb(0.0)) * 1024
        assert grown_kb == pytest.approx(60.0)

    def test_text_exclusion_models_shared_text(self):
        layout = SegmentLayout(100, 200, 50, 30)
        saved = layout.image_mb(0.0) - layout.image_mb(0.0, include_text=False)
        assert saved == pytest.approx(100 / 1024)

    def test_negative_sizes_rejected(self):
        with pytest.raises(SimulationError):
            SegmentLayout(-1, 0, 0, 0)

    def test_negative_progress_rejected(self):
        layout = SegmentLayout(10, 10, 10, 10)
        with pytest.raises(SimulationError):
            layout.image_mb(-5.0)

    def test_typical_layout_averages_half_mb(self):
        stream = RandomStream(11, "layout")
        sizes = [typical_layout(stream).image_mb() for _ in range(3000)]
        assert sum(sizes) / len(sizes) == pytest.approx(0.5, abs=0.03)

    def test_typical_layout_deterministic_without_stream(self):
        assert typical_layout().image_mb() == pytest.approx(0.5)


class TestCheckpointCosts:
    def test_paper_headline_cost(self):
        # 0.5 MB average image -> ~2.5 s of home CPU (paper 3.1).
        assert checkpoint_cpu_cost(0.5) == pytest.approx(2.5)

    def test_cost_scales_linearly(self):
        assert checkpoint_cpu_cost(2.0) == 2 * checkpoint_cpu_cost(1.0)

    def test_cost_constant_is_five(self):
        assert CHECKPOINT_CPU_S_PER_MB == 5.0

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            checkpoint_cpu_cost(-0.1)


class TestCheckpointStore:
    def make_store(self, capacity=10.0):
        return CheckpointStore(Disk(capacity))

    def image(self, job_id="j1", progress=100.0, size=0.5, seq=1):
        return CheckpointImage(job_id, progress, size, taken_at=0.0,
                               sequence=seq)

    def test_store_and_fetch(self):
        store = self.make_store()
        image = self.image()
        store.store(image)
        assert store.fetch("j1") is image

    def test_new_image_supersedes_old(self):
        store = self.make_store()
        store.store(self.image(progress=100.0, size=2.0, seq=1))
        store.store(self.image(progress=200.0, size=3.0, seq=2))
        assert store.fetch("j1").cpu_progress == 200.0
        assert store.disk.used_mb == pytest.approx(3.0)
        assert len(store) == 1

    def test_discard_releases_space(self):
        store = self.make_store()
        store.store(self.image(size=4.0))
        store.discard("j1")
        assert store.fetch("j1") is None
        assert store.disk.used_mb == 0.0

    def test_discard_unknown_is_noop(self):
        self.make_store().discard("ghost")

    def test_can_store_is_two_phase(self):
        store = self.make_store(capacity=5.0)
        store.store(self.image(size=4.0))
        # Two-phase write: the new image needs free space while the old
        # generation is still held, so 4 MB held + 1 MB free fits neither.
        assert not store.can_store("j1", 4.5)
        assert not store.can_store("j2", 4.5)
        assert store.can_store("j1", 1.0)

    def test_supersede_charges_both_images_transiently(self):
        store = self.make_store(capacity=5.0)
        store.store(self.image(size=3.0, seq=1))
        with pytest.raises(SimulationError):
            store.store(self.image(progress=200.0, size=2.5, seq=2))
        # The failed write lost nothing: the old image is still stored.
        assert store.fetch("j1").cpu_progress == 100.0
        assert store.disk.used_mb == pytest.approx(3.0)

    def test_images_stored_counter(self):
        store = self.make_store()
        store.store(self.image(seq=1))
        store.store(self.image(seq=2))
        assert store.images_stored == 2

    def test_bad_image_rejected(self):
        with pytest.raises(SimulationError):
            CheckpointImage("j", -1.0, 0.5, 0.0, 1)

    def test_generations_assigned_monotonically(self):
        store = self.make_store()
        store.store(self.image(seq=1))
        store.store(self.image(progress=200.0, seq=2))
        assert store.fetch("j1").generation == 2
        store.discard("j1")
        store.store(self.image(progress=300.0, seq=3))
        # Counter is per job and survives discards (no generation reuse).
        assert store.fetch("j1").generation == 3

    def test_multiple_generations_kept(self):
        store = CheckpointStore(Disk(10.0), generations=2)
        store.store(self.image(progress=100.0, size=1.0, seq=1))
        store.store(self.image(progress=200.0, size=1.0, seq=2))
        store.store(self.image(progress=300.0, size=1.0, seq=3))
        kept = [img.cpu_progress for img in store.generations_of("j1")]
        assert kept == [300.0, 200.0]
        assert store.disk.used_mb == pytest.approx(2.0)

    def test_generations_must_be_positive(self):
        with pytest.raises(SimulationError):
            CheckpointStore(Disk(10.0), generations=0)

    def test_verify_detects_corruption(self):
        image = self.image()
        assert image.verify()
        image.corrupt()
        assert not image.verify()
        image.corrupt()      # XOR flip is its own inverse
        assert image.verify()

    def test_fetch_verified_falls_back_a_generation(self):
        store = CheckpointStore(Disk(10.0), generations=2)
        store.store(self.image(progress=100.0, size=1.0, seq=1))
        store.store(self.image(progress=200.0, size=1.0, seq=2))
        store.corrupt("j1", newest=1)
        image, discarded = store.fetch_verified("j1")
        assert image.cpu_progress == 100.0
        assert discarded == 1
        assert store.corrupt_discarded == 1
        # The corrupt generation's space was released.
        assert store.disk.used_mb == pytest.approx(1.0)

    def test_fetch_verified_exhausts_to_none(self):
        store = CheckpointStore(Disk(10.0), generations=2)
        store.store(self.image(progress=100.0, size=1.0, seq=1))
        store.store(self.image(progress=200.0, size=1.0, seq=2))
        poisoned = store.corrupt("j1", newest=2)
        assert poisoned == [("j1", 200.0), ("j1", 100.0)]
        image, discarded = store.fetch_verified("j1")
        assert image is None
        assert discarded == 2
        assert store.disk.used_mb == pytest.approx(0.0)

    def test_fetch_verified_clean_store_discards_nothing(self):
        store = self.make_store()
        stored = self.image()
        store.store(stored)
        image, discarded = store.fetch_verified("j1")
        assert image is stored
        assert discarded == 0

    def test_torn_write_keeps_previous_generation(self):
        from repro.remote_unix import CheckpointTornWrite

        store = self.make_store()
        store.store(self.image(progress=100.0, seq=1))
        store.arm_torn_writes(1)
        with pytest.raises(CheckpointTornWrite):
            store.store(self.image(progress=200.0, seq=2))
        assert store.torn_writes == 1
        assert store.fetch("j1").cpu_progress == 100.0
        # The torn image's transient allocation was released.
        assert store.disk.used_mb == pytest.approx(0.5)
        # The next write succeeds (the arm was consumed).
        store.store(self.image(progress=300.0, seq=3))
        assert store.fetch("j1").cpu_progress == 300.0

    def test_disarm_torn_writes(self):
        store = self.make_store()
        store.arm_torn_writes(5)
        store.disarm_torn_writes()
        store.store(self.image())
        assert store.torn_writes == 0


class TestShadow:
    def test_paper_costs(self):
        assert REMOTE_SYSCALL_CPU_S == pytest.approx(0.010)
        assert LOCAL_SYSCALL_CPU_S == pytest.approx(0.0005)
        assert breakeven_syscall_rate() == pytest.approx(100.0)

    def test_load_fraction(self):
        assert remote_syscall_load(10.0) == pytest.approx(0.1)
        assert remote_syscall_load(0.0) == 0.0

    def test_load_saturates_at_one(self):
        assert remote_syscall_load(1000.0) == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(SimulationError):
            remote_syscall_load(-1.0)

    def test_record_execution_charges_home_ledger(self):
        sim = Simulation()
        ledger = CpuLedger(sim, "home")
        shadow = ShadowProcess("j1", syscall_rate=5.0, home_ledger=ledger)
        charged = shadow.record_execution(0.0, 100.0)
        assert charged == pytest.approx(5.0)       # 5/s * 10 ms * 100 s
        assert ledger.totals[SYSCALL] == pytest.approx(5.0)
        assert shadow.remote_seconds == 100.0

    def test_retired_shadow_rejects_recording(self):
        sim = Simulation()
        shadow = ShadowProcess("j1", 1.0, CpuLedger(sim))
        shadow.retire()
        with pytest.raises(SimulationError):
            shadow.record_execution(0.0, 1.0)

    @given(rate=st.floats(0.0, 99.0), seconds=st.floats(0.0, 10000.0))
    @settings(max_examples=60, deadline=None)
    def test_support_proportional_to_execution(self, rate, seconds):
        sim = Simulation()
        shadow = ShadowProcess("j", rate, CpuLedger(sim))
        charged = shadow.record_execution(0.0, seconds)
        assert charged == pytest.approx(seconds * rate * 0.010)
