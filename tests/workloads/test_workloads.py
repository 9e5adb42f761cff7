"""Tests for the five benchmark workloads and their constructs."""

import numpy as np
import pytest

from repro.cloud import get_environment
from repro.emulation import BotSwarm
from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.entity import EntityKind
from repro.mlg.server import MLGServer
from repro.persistence.warmup import prepare_world
from repro.workloads import (
    WORKLOADS,
    ControlWorkload,
    FarmWorkload,
    FloodWorkload,
    LagWorkload,
    PlayersWorkload,
    TNTWorkload,
    get_workload,
)


class FixedMachine:
    throttled_executions = 0
    total_executions = 0
    cpu_used_us = 0.0
    wall_observed_us = 0.0
    credits_s = 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        return max(1, int(work_us))


def _setup(workload, seed=0, **server_kwargs):
    world = workload.create_world(seed)
    server = MLGServer(
        "vanilla", FixedMachine(), world=world, seed=seed, **server_kwargs
    )
    env = get_environment("das5-2core")
    swarm = BotSwarm(server, env.network, np.random.default_rng(seed))
    workload.install(server, swarm)
    return server, swarm


def _run(server, swarm, seconds):
    server.start()
    deadline = server.clock.now_us + int(seconds * 1e6)
    while server.clock.now_us < deadline and server.running:
        server.tick()
        swarm.step()
        if server.crashed:
            break


class TestRegistry:
    def test_all_workloads_registered(self):
        assert set(WORKLOADS) == {
            "control", "tnt", "farm", "lag", "players", "flood",
            "exploration",
        }

    def test_get_workload_by_name(self):
        assert isinstance(get_workload("control"), ControlWorkload)
        assert isinstance(get_workload("TNT"), TNTWorkload)
        assert isinstance(get_workload("flood"), FloodWorkload)

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload"):
            get_workload("bedwars")

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            get_workload("control", scale=0.0)

    def test_display_names(self):
        names = {cls.display_name for cls in WORKLOADS.values()}
        # The paper's five workloads plus our fluid-dominated and
        # chunk-IO-churn extensions.
        assert names == {
            "Control", "TNT", "Farm", "Lag", "Players", "Flood",
            "Exploration",
        }


class TestControl:
    def test_connects_single_observer(self):
        workload = ControlWorkload()
        server, swarm = _setup(workload)
        assert server.net.connected_count == 1
        assert not workload.player_based

    def test_world_is_generated_terrain(self):
        workload = ControlWorkload()
        world = workload.create_world(seed=1)
        world.ensure_chunk(0, 0)
        assert world.get_chunk(0, 0).blocks.any()


class TestTNT:
    def test_world_contains_tnt_cuboid(self):
        workload = TNTWorkload()
        world = workload.create_world(seed=1)
        dx, dy, dz = workload.cuboid_dims()
        assert (dx, dy, dz) == (16, 14, 16)
        assert world.count_blocks(Block.TNT) == 16 * 14 * 16

    def test_scale_grows_cuboid(self):
        workload = TNTWorkload(scale=2.0)
        assert workload.cuboid_dims() == (16, 28, 16)

    def test_ignition_at_20_seconds(self):
        workload = TNTWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 19.5)
        assert server.entities.count(EntityKind.TNT) == 0
        _run(server, swarm, 1.5)
        assert server.entities.count(EntityKind.TNT) > 3000

    def test_explosions_follow_ignition(self):
        # Fuses are 60-170 game ticks; under overload those game ticks
        # stretch in wall time, so give the chain room to detonate.
        workload = TNTWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 45.0)
        assert server.tnt.explosions_total > 0
        assert server.tnt.blocks_destroyed_total > 0


class TestFarm:
    def test_table3_construct_counts(self):
        counts = FarmWorkload().counts()
        assert counts == {
            "entity_farm": 12,
            "stone_farm": 4,
            "kelp_farm": 4,
            "item_sorter": 1,
        }

    def test_scale_multiplies_counts(self):
        counts = FarmWorkload(scale=2.0).counts()
        assert counts["entity_farm"] == 24
        assert counts["item_sorter"] == 1

    def test_install_registers_platforms_and_clocks(self):
        workload = FarmWorkload()
        server, swarm = _setup(workload)
        assert len(server.spawning.platforms) == 12
        assert len(server.redstone.clocks) == 4  # stone-farm timers
        assert len(server.tick_hooks) >= 4 + 4 + 1  # stone + kelp + sorter

    def test_farm_produces_entities_and_items(self):
        workload = FarmWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 30.0)
        assert server.entities.count(EntityKind.MOB) > 0
        assert server.spawning.kills_total + server.entities.count(
            EntityKind.ITEM
        ) > 0

    def test_farm_entity_population_is_bounded(self):
        workload = FarmWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 45.0)
        assert server.entities.count() < 600


class TestLag:
    def test_machine_built_with_tick_clocks(self):
        workload = LagWorkload()
        server, swarm = _setup(workload)
        assert len(workload.machine.clocks) == 16
        for clock in workload.machine.clocks:
            assert clock.period_ticks == 2

    def test_alternating_tick_pattern(self):
        workload = LagWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 3.0)
        durations = [r.duration_us for r in server.tick_records]
        pulses = durations[2::2]
        rests = durations[3::2]
        assert min(pulses) > 10 * max(rests), "every-other-tick load expected"

    def test_scale_multiplies_gates(self):
        workload = LagWorkload(scale=2.0)
        server, swarm = _setup(workload)
        total = sum(c.gate_count for c in workload.machine.clocks)
        assert total == pytest.approx(2 * LagWorkload.BASE_GATES, rel=0.01)

    def test_stable_when_ticks_under_grace(self):
        workload = LagWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 10.0)
        base = LagWorkload.BASE_GATES // 16
        for clock in workload.machine.clocks:
            assert clock.gate_count <= base * 2, "no runaway on a fast host"


class TestFlood:
    def test_world_has_reservoir_and_gates(self):
        workload = FloodWorkload()
        world = workload.create_world(seed=1)
        assert world.count_blocks(Block.WATER_SOURCE) > 1000
        gx0, gy0, gz0, gx1, gy1, gz1 = workload._gates[0]
        assert world.get_block(gx0, gy0, gz0) == Block.OBSIDIAN

    def test_breach_floods_the_basin(self):
        workload = FloodWorkload()
        server, swarm = _setup(workload)
        world = server.world
        assert world.count_blocks(Block.WATER_FLOW) == 0
        _run(server, swarm, 25.0)
        # The dam opened at T+10 s and the cascade is spreading.
        assert world.count_blocks(Block.WATER_FLOW) > 500
        gx0, gy0, gz0, *_ = workload._gates[0]
        assert world.get_block(gx0, gy0, gz0) in (
            Block.AIR, Block.WATER_FLOW,
        )

    def test_no_ambient_mobs(self):
        # The water-bedded canyon has no spawnable surface, so the fluid
        # signal is not polluted by the ambient mob population.
        workload = FloodWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 30.0)
        assert server.entities.count(EntityKind.MOB) == 0

    def test_fluids_dominate_tick_distribution(self):
        workload = FloodWorkload()
        server, swarm = _setup(workload)
        _run(server, swarm, 40.0)
        totals = server.telemetry.bucket_totals_us
        assert max(totals, key=totals.get) == "Fluids"

    def test_scale_grows_basin(self):
        small = FloodWorkload().dims()
        large = FloodWorkload(scale=2.0).dims()
        assert large[0] > small[0] and large[1] > small[1]


class TestPlayers:
    def test_default_25_bots(self):
        workload = PlayersWorkload()
        assert workload.n_bots == 25
        assert workload.player_based

    def test_custom_bot_count(self):
        assert PlayersWorkload(n_bots=10).n_bots == 10
        assert PlayersWorkload(scale=2.0).n_bots == 50

    def test_bots_connect_staggered(self):
        workload = PlayersWorkload(n_bots=6)
        server, swarm = _setup(workload)
        _run(server, swarm, 3.0)
        assert server.net.connected_count == 6


class TestHeightmapPrecondition:
    """Lighting reads a column's skylight cut-off off its heightmap, so
    every writer a workload uses must leave the heightmap exact."""

    @staticmethod
    def _assert_exact(world):
        chunks = list(world.loaded_chunks())
        assert chunks
        for chunk in chunks:
            np.testing.assert_array_equal(
                chunk.heightmap,
                column_tops(chunk.blocks != Block.AIR),
                err_msg=f"chunk ({chunk.cx}, {chunk.cz})",
            )

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_after_install_and_one_second(self, name):
        server, swarm = _setup(get_workload(name))
        _run(server, swarm, 1.0)
        self._assert_exact(server.world)

    def test_with_chunks_loaded_from_the_world_cache(self, tmp_path):
        prepare_world(tmp_path, "tnt", radius=2)
        server, swarm = _setup(
            TNTWorkload(), world_cache_dir=str(tmp_path)
        )
        assert server.lifecycle.chunks_loaded > 0
        _run(server, swarm, 1.0)
        self._assert_exact(server.world)
