"""Exploration workload: spiral routes and the chunk-IO churn they force."""

import math

import numpy as np
import pytest

from repro.cloud.providers import get_environment
from repro.core.experiment import run_iteration
from repro.emulation.behavior import SpiralMarch, make_behavior
from repro.emulation.swarm import BotSwarm
from repro.mlg.server import MLGServer
from repro.workloads import ExplorationWorkload, get_workload


class TestSpiralMarch:
    def test_constant_ground_speed(self):
        rng = np.random.default_rng(0)
        behavior = SpiralMarch(cx=0.0, cz=0.0, speed=1.5)
        x, z = behavior.next_move(0.0, 0.0, rng)
        for _ in range(300):
            nx, nz = behavior.next_move(x, z, rng)
            step = math.hypot(nx - x, nz - z)
            assert step == pytest.approx(1.5, rel=0.05)
            x, z = nx, nz

    def test_out_and_back_sorties_grow(self):
        rng = np.random.default_rng(0)
        behavior = SpiralMarch(
            cx=0.0, cz=0.0, speed=4.0, initial_radius=40.0, growth=20.0
        )
        radii = []
        for _ in range(400):
            x, z = behavior.next_move(0.0, 0.0, rng)
            radii.append(math.hypot(x, z))
        peak_first = max(radii[:100])
        assert peak_first == pytest.approx(40.0, abs=5.0)
        # After turning around, the route comes back near the base...
        assert min(radii[50:]) < 20.0
        # ...and the next sortie pushes past the previous frontier.
        assert max(radii[100:]) > 40.0
        assert max(radii) > peak_first + 5.0

    def test_registry_name(self):
        behavior = make_behavior("spiral-march", (0.0, 0.0, 16.0, 16.0))
        assert isinstance(behavior, SpiralMarch)
        assert (behavior.cx, behavior.cz) == (8.0, 8.0)

    def test_registry_bots_fan_out_over_distinct_arms(self):
        # Registry-built behaviors share constructor args, so the phase
        # comes from the bot's RNG: a squad must not stack on one arm.
        rng = np.random.default_rng(3)
        behaviors = [
            make_behavior("spiral-march", (0.0, 0.0, 16.0, 16.0))
            for _ in range(4)
        ]
        for behavior in behaviors:
            behavior.next_move(8.0, 8.0, rng)
        phases = {behavior.phase for behavior in behaviors}
        assert len(phases) == 4

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            SpiralMarch(speed=0.0)
        with pytest.raises(ValueError):
            SpiralMarch(min_radius=100.0, initial_radius=50.0)


class TestExplorationWorkload:
    def test_scale_controls_squad_size(self):
        assert ExplorationWorkload().n_bots == 4
        assert ExplorationWorkload(scale=2.0).n_bots == 8
        assert ExplorationWorkload(scale=0.1).n_bots == 1
        assert isinstance(get_workload("exploration"), ExplorationWorkload)

    def test_scouts_connect_with_spiral_arms(self):
        env = get_environment("das5-2core")
        server = MLGServer(
            "vanilla",
            env.create_machine(seed=1),
            world=ExplorationWorkload().create_world(1),
            seed=1,
        )
        swarm = BotSwarm(server, env.network, np.random.default_rng(1))
        ExplorationWorkload().install(server, swarm)
        server.run_for(4.0)
        swarm.step()
        assert server.net.connected_count == 4
        phases = {bot.behavior.phase for bot in swarm.bots}
        assert len(phases) == 4  # one spiral arm per scout


class TestExplorationChurn:
    """The acceptance scenario: plateaued residency, a nonzero Autosave
    bucket, and visible full-flush tick spikes."""

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("exploration")
        return run_iteration(
            "exploration",
            "vanilla",
            "das5-2core",
            duration_s=60.0,
            seed=7,
            world_dir=str(tmp / "world"),
            autosave_interval_s=5.0,
            autosave_flush_every=4,
            max_loaded_chunks=150,
        )

    def test_full_churn_cycle(self, result):
        world = result.telemetry["world"]
        assert world["chunks_saved"] > 100
        assert world["chunks_evicted"] > 100
        assert world["chunks_loaded_from_disk"] > 20
        assert world["full_flushes"] >= 1
        assert world["bytes_written"] > 0
        assert world["bytes_read"] > 0

    def test_loaded_chunk_count_plateaus(self, result):
        world = result.telemetry["world"]
        # Without eviction the run touches far more chunks than stay
        # resident: saved + evicted bound the touched set from below.
        # Residency floats above the 150-chunk cap by the squads'
        # (uncappable) in-view sets, but stays well under the frontier.
        assert world["peak_loaded_chunks"] < 400
        assert world["final_loaded_chunks"] <= world["peak_loaded_chunks"]
        # Residency ends near the cap + in-view floor, not at the total
        # touched-chunk count (which exceeds saved > 100 + reloads).
        assert world["final_loaded_chunks"] < (
            world["chunks_saved"] + world["chunks_loaded_from_disk"]
        )

    def test_autosave_and_chunk_load_buckets_visible(self, result):
        shares = result.tick_distribution
        assert shares.get("Autosave", 0.0) > 0.0
        assert shares.get("Chunk Load", 0.0) > 0.005

    def test_memory_reflects_real_sawtooth(self, result):
        # Eviction on: the synthetic GC jitter is disabled, so sampled
        # memory tracks server.memory_bytes() — which plateaus.
        summary = result.system_summary
        assert summary["memory_max_mb"] < 800.0  # 600 MB base + capped world

    def test_disabled_persistence_stays_in_memory(self):
        result = run_iteration(
            "exploration",
            "vanilla",
            "das5-2core",
            duration_s=10.0,
            seed=7,
        )
        assert "world" not in result.telemetry
        assert result.tick_distribution.get("Autosave", 0.0) == 0.0
