"""Tests for configuration validation."""

import pytest

from repro.core import CondorConfig
from repro.sim import SimulationError


class TestCondorConfig:
    def test_defaults_match_paper(self):
        config = CondorConfig()
        assert config.poll_interval == 120.0
        assert config.grace_period == 300.0
        assert config.placements_per_cycle == 1
        assert not config.kill_on_owner_return
        assert config.periodic_checkpoint_interval is None
        assert config.max_machines_per_station is None

    @pytest.mark.parametrize("kwargs", [
        {"poll_interval": 0},
        {"grace_period": -1},
        {"placements_per_cycle": -1},
        {"coordinator_mode": "federated"},
        {"coordinator_mode": "poll", "federation_pools": 2},
        {"grants_per_station_per_cycle": 0},
        {"host_selection": "astrology"},
        {"periodic_checkpoint_interval": 0},
        {"scheduler_daemon_load": 1.5},
        {"max_machines_per_station": 0},
        {"queue_discipline": "lifo"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        if "queue_discipline" in kwargs:
            # validated by the queue, not the config dataclass
            from repro.core import BackgroundJobQueue
            with pytest.raises(SimulationError):
                BackgroundJobQueue("ws", discipline=kwargs["queue_discipline"])
            return
        with pytest.raises(SimulationError):
            CondorConfig(**kwargs)

    def test_butler_variant(self):
        config = CondorConfig(kill_on_owner_return=True)
        assert config.kill_on_owner_return

    def test_periodic_checkpoint_variant(self):
        config = CondorConfig(periodic_checkpoint_interval=600.0)
        assert config.periodic_checkpoint_interval == 600.0
