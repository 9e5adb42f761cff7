"""Tests for the configuration (Table 4)."""

import pytest

from repro.core import MeterstickConfig


class TestConfig:
    def test_defaults_are_valid(self):
        config = MeterstickConfig()
        assert config.servers == ["vanilla", "forge", "papermc"]
        assert config.number_of_bots == 25  # Table 4 typical value
        assert config.duration_s == 60.0
        assert config.iterations == 1
        assert config.scale == 1.0

    def test_table4_parameters_exist(self):
        # Table 4's experiment parameters; its deployment ones (IPs, keys,
        # ports, JMX) have no counterpart in an in-process harness.
        config = MeterstickConfig()
        for attribute in (
            "servers", "world", "output_dir", "number_of_bots", "behavior",
            "duration_s", "iterations", "scale",
        ):
            assert hasattr(config, attribute), attribute

    def test_validation_rejects_unknown_server(self):
        with pytest.raises(ValueError):
            MeterstickConfig(servers=["spigot"])

    def test_validation_rejects_unknown_world(self):
        with pytest.raises(ValueError, match="unknown world"):
            MeterstickConfig(world="skyblock")

    def test_validation_rejects_unknown_environment(self):
        with pytest.raises(ValueError):
            MeterstickConfig(environment="gcp")

    def test_validation_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            MeterstickConfig(duration_s=0.0)
        with pytest.raises(ValueError):
            MeterstickConfig(iterations=0)
        with pytest.raises(ValueError):
            MeterstickConfig(number_of_bots=-1)
        with pytest.raises(ValueError):
            MeterstickConfig(scale=-1.0)

    def test_round_trip_serialization(self):
        config = MeterstickConfig(world="tnt", iterations=3, seed=42)
        clone = MeterstickConfig.from_dict(config.to_dict())
        assert clone == config

    def test_iteration_seeds_are_distinct_and_stable(self):
        config = MeterstickConfig(seed=1)
        a = config.iteration_seed("vanilla", 0)
        b = config.iteration_seed("vanilla", 1)
        c = config.iteration_seed("forge", 0)
        assert len({a, b, c}) == 3
        assert config.iteration_seed("vanilla", 0) == a
