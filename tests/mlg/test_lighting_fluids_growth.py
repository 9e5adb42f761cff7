"""Tests for the lighting, fluid, and growth terrain-simulation engines."""

import numpy as np
import pytest

from repro.mlg.blocks import Block
from repro.mlg.constants import MAX_LIGHT, SEA_LEVEL, WORLD_HEIGHT
from repro.mlg.fluids import (
    LAVA_TICK_INTERVAL,
    MAX_FLOW_LEVEL,
    MAX_LAVA_FLOW_LEVEL,
    WATER_TICK_INTERVAL,
    FluidEngine,
)
from repro.mlg.growth import CROP_MATURE_STAGE, GrowthEngine, KELP_MAX_HEIGHT
from repro.mlg.lighting import LightEngine
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World


def _flat_world(ground_y=60, size=1):
    """A flat stone slab covering ``size``x``size`` chunks."""
    world = World()
    edge = 16 * size - 1
    world.fill(0, 0, 0, edge, ground_y - 1, edge, Block.STONE)
    return world


class TestLighting:
    def test_skylight_above_ground_is_full(self):
        world = _flat_world()
        lights = LightEngine(world)
        chunk = world.get_chunk(0, 0)
        lights.light_chunks([chunk])
        assert lights.light_at(4, 80, 4) == MAX_LIGHT

    def test_skylight_blocked_below_ground(self):
        world = _flat_world()
        lights = LightEngine(world)
        chunk = world.get_chunk(0, 0)
        lights.light_chunks([chunk])
        assert int(chunk.skylight[4, 4, 10]) == 0

    def test_roof_makes_darkness(self):
        world = _flat_world()
        lights = LightEngine(world)
        # Roof at y=65 over the column (4,4): below it becomes dark.
        world.set_block(4, 65, 4, Block.STONE)
        lights.relight_column(4, 4)
        chunk = world.get_chunk(0, 0)
        assert int(chunk.skylight[4, 4, 62]) == 0
        assert int(chunk.skylight[4, 4, 70]) == MAX_LIGHT

    def test_torch_emits_block_light(self):
        world = _flat_world()
        world.set_block(8, 60, 8, Block.TORCH)
        lights = LightEngine(world)
        chunk = world.get_chunk(0, 0)
        lights.light_chunks([chunk])
        assert int(chunk.blocklight[8, 8, 60]) == 14
        # One block away: one less.
        assert int(chunk.blocklight[8, 8, 61]) == 13

    def test_block_light_decays_with_distance(self):
        world = _flat_world()
        world.set_block(8, 70, 8, Block.TORCH)
        lights = LightEngine(world)
        chunk = world.get_chunk(0, 0)
        lights.light_chunks([chunk])
        assert int(chunk.blocklight[8, 8, 75]) == 14 - 5

    def test_relight_records_work(self):
        world = _flat_world()
        lights = LightEngine(world)
        lights.light_chunks([world.get_chunk(0, 0)])
        report = WorkReport()
        lights.relight_around(4, 60, 4, report)
        assert report.get(Op.LIGHTING) > 0

    def test_light_at_unloaded_is_full(self):
        world = World()
        lights = LightEngine(world)
        assert lights.light_at(1000, 64, 1000) == MAX_LIGHT


class TestFluids:
    def test_water_flows_downhill(self):
        world = _flat_world(ground_y=60)
        fluids = FluidEngine(world)
        # A water source on a ledge with a pit next to it.
        world.set_block(4, 59, 4, Block.AIR)  # pit at (4, 4)
        world.set_block(5, 60, 4, Block.WATER_SOURCE)
        fluids.schedule_neighbors(5, 61, 4)
        report = WorkReport()
        for tick in range(0, 10 * WATER_TICK_INTERVAL):
            fluids.tick(tick, report)
        # Water spread sideways into the pit column and fell down.
        assert world.get_block(4, 59, 4) in (
            Block.WATER_FLOW, Block.WATER_SOURCE
        ) or world.get_block(4, 60, 4) == Block.WATER_FLOW

    def test_spread_level_decreases(self):
        world = _flat_world(ground_y=60)
        fluids = FluidEngine(world)
        world.set_block(8, 60, 8, Block.WATER_SOURCE)
        fluids.schedule_neighbors(8, 61, 8)
        report = WorkReport()
        for tick in range(0, 20 * WATER_TICK_INTERVAL):
            fluids.tick(tick, report)
        assert world.get_block(9, 60, 8) == Block.WATER_FLOW
        level_near = world.get_aux(9, 60, 8)
        level_far = world.get_aux(11, 60, 8)
        assert level_near > level_far or world.get_block(11, 60, 8) == Block.AIR

    def test_spread_is_bounded(self):
        world = _flat_world(ground_y=60, size=2)
        fluids = FluidEngine(world)
        world.set_block(8, 60, 8, Block.WATER_SOURCE)
        fluids.schedule_neighbors(8, 61, 8)
        report = WorkReport()
        for tick in range(0, 40 * WATER_TICK_INTERVAL):
            fluids.tick(tick, report)
        # Max spread radius is 7 on flat ground.
        assert world.get_block(8 + 8, 60, 8) == Block.AIR

    def test_fluid_only_ticks_on_interval(self):
        world = _flat_world()
        fluids = FluidEngine(world)
        world.set_block(4, 60, 4, Block.WATER_SOURCE)
        fluids.schedule_neighbors(4, 61, 4)
        report = WorkReport()
        assert fluids.tick(1, report) == 0  # not a fluid tick
        assert fluids.tick(WATER_TICK_INTERVAL, report) == 1

    def test_flow_vector_points_downstream(self):
        world = _flat_world(ground_y=60)
        fluids = FluidEngine(world)
        world.set_block(4, 60, 4, Block.WATER_FLOW, aux=6)
        world.set_block(5, 60, 4, Block.WATER_FLOW, aux=4)
        push = fluids.flow_vector(4, 60, 4)
        assert push[0] > 0  # toward +x (lower level)
        assert push[1] == 0

    def test_flow_vector_still_water_is_zero(self):
        world = _flat_world()
        world.set_block(4, 60, 4, Block.WATER_SOURCE)
        fluids = FluidEngine(world)
        assert fluids.flow_vector(4, 60, 4) == (0.0, 0.0)

    def test_work_is_counted(self):
        world = _flat_world(ground_y=60)
        fluids = FluidEngine(world)
        world.set_block(8, 60, 8, Block.WATER_SOURCE)
        fluids.schedule_neighbors(8, 61, 8)
        report = WorkReport()
        for tick in range(0, 10 * WATER_TICK_INTERVAL):
            fluids.tick(tick, report)
        assert report.get(Op.FLUID) > 0
        assert report.get(Op.BLOCK_ADD_REMOVE) > 0

    def test_stale_queue_entries_are_not_charged(self):
        # A queued cell that no longer holds fluid when popped is queue
        # churn, not fluid work; it must not be charged to Op.FLUID.
        world = _flat_world(ground_y=60)
        fluids = FluidEngine(world)
        world.set_block(4, 60, 4, Block.WATER_SOURCE)
        fluids.schedule_neighbors(4, 61, 4)
        world.set_block(4, 60, 4, Block.STONE)  # gone before the tick
        report = WorkReport()
        assert fluids.tick(WATER_TICK_INTERVAL, report) == 0
        assert report.get(Op.FLUID) == 0

    def test_flow_down_refreshes_weaker_flow_below(self):
        # A lower-level WATER_FLOW directly under a source must be
        # refreshed to full strength, not left stale because only AIR
        # below was ever written.
        world = _flat_world(ground_y=58)
        world.set_block(4, 60, 4, Block.WATER_SOURCE)
        world.set_block(4, 59, 4, Block.WATER_FLOW, aux=2)
        fluids = FluidEngine(world)
        fluids.schedule_neighbors(4, 61, 4)
        report = WorkReport()
        fluids.tick(WATER_TICK_INTERVAL, report)
        assert world.get_aux(4, 59, 4) == MAX_FLOW_LEVEL


class TestLava:
    def test_lava_spreads_sideways_with_short_reach(self):
        world = _flat_world(ground_y=60)
        fluids = FluidEngine(world)
        world.set_block(8, 60, 8, Block.LAVA)
        fluids.schedule_neighbors(8, 61, 8)
        report = WorkReport()
        for tick in range(0, 30 * LAVA_TICK_INTERVAL):
            fluids.tick(tick, report)
        assert world.get_block(9, 60, 8) == Block.LAVA
        assert world.get_aux(9, 60, 8) == MAX_LAVA_FLOW_LEVEL
        # Shorter reach than water: dead past MAX_LAVA_FLOW_LEVEL blocks.
        assert world.get_block(8 + MAX_LAVA_FLOW_LEVEL + 1, 60, 8) == Block.AIR
        assert report.get(Op.FLUID) > 0

    def test_lava_flows_down(self):
        world = _flat_world(ground_y=60)
        world.set_block(4, 59, 4, Block.AIR)  # pit
        world.set_block(4, 60, 4, Block.LAVA)
        fluids = FluidEngine(world)
        fluids.schedule_neighbors(4, 61, 4)
        report = WorkReport()
        for tick in range(0, 5 * LAVA_TICK_INTERVAL):
            fluids.tick(tick, report)
        assert world.get_block(4, 59, 4) == Block.LAVA

    def test_lava_is_slower_than_water(self):
        # A lava cell queued at tick 0 does nothing on a plain water tick;
        # it waits for the (less frequent) lava interval.
        world = _flat_world(ground_y=60)
        world.set_block(4, 60, 4, Block.LAVA)
        fluids = FluidEngine(world)
        fluids.schedule_neighbors(4, 61, 4)
        report = WorkReport()
        assert fluids.tick(WATER_TICK_INTERVAL, report) == 0
        assert world.get_block(5, 60, 4) == Block.AIR
        assert fluids.tick(LAVA_TICK_INTERVAL, report) == 1
        assert world.get_block(5, 60, 4) == Block.LAVA

    def test_queued_lava_is_not_pure_churn(self, count_blocks):
        # The old engine enqueued lava cells and silently dropped them in
        # _update_cell — work was counted with nothing simulated.  Now a
        # processed lava cell actually spreads.
        world = _flat_world(ground_y=60)
        world.set_block(4, 60, 4, Block.LAVA)
        fluids = FluidEngine(world)
        fluids.schedule_neighbors(5, 60, 4)
        assert fluids.pending == 1
        report = WorkReport()
        for tick in range(0, 2 * LAVA_TICK_INTERVAL):
            fluids.tick(tick, report)
        assert count_blocks(world, Block.LAVA) > 1

    def test_unsupported_lava_flow_clears(self):
        world = _flat_world(ground_y=60)
        world.set_block(4, 60, 4, Block.LAVA)
        world.set_aux(4, 60, 4, 1)  # a flow with no feeding neighbor
        fluids = FluidEngine(world)
        fluids.schedule_neighbors(4, 61, 4)
        report = WorkReport()
        for tick in range(0, 2 * LAVA_TICK_INTERVAL):
            fluids.tick(tick, report)
        assert world.get_block(4, 60, 4) == Block.AIR

    def test_lava_exerts_no_item_push(self):
        world = _flat_world(ground_y=60)
        world.set_block(4, 60, 4, Block.LAVA)
        world.set_aux(4, 60, 4, 2)
        fluids = FluidEngine(world)
        assert fluids.flow_vector(4, 60, 4) == (0.0, 0.0)


class TestGrowth:
    def _engine(self, world, seed=0):
        return GrowthEngine(world, np.random.default_rng(seed))

    def test_crop_stage_advances_and_matures(self):
        """Direct stage mechanics: each growth step advances one stage and
        maturation is announced exactly once."""
        world = _flat_world()
        world.set_block(4, 60, 4, Block.CROP, aux=0)
        growth = self._engine(world)
        chunk = world.get_chunk(0, 0)
        for expected_stage in range(1, CROP_MATURE_STAGE + 1):
            growth._grow_crop(chunk, 4, 4, 60)
            assert world.get_aux(4, 60, 4) == expected_stage
        matured = list(growth.matured)
        assert matured == [(4, 60, 4)]
        # Mature crops stop advancing.
        growth._grow_crop(chunk, 4, 4, 60)
        assert world.get_aux(4, 60, 4) == CROP_MATURE_STAGE

    def test_crop_field_progresses_under_random_ticks(self):
        world = _flat_world()
        for x in range(16):
            for z in range(16):
                world.set_block(x, 60, z, Block.CROP, aux=0)
        growth = self._engine(world)
        report = WorkReport()
        for _ in range(3000):
            growth.tick(report)
        chunk = world.get_chunk(0, 0)
        assert int(chunk.aux[:, :, 60].sum()) > 0, "no crop advanced"

    def test_kelp_grows_up_through_water(self):
        world = _flat_world(ground_y=40)
        for y in range(40, SEA_LEVEL):
            world.set_block(4, y, 4, Block.WATER_SOURCE)
        world.set_block(4, 40, 4, Block.KELP)
        growth = self._engine(world)
        report = WorkReport()
        chunk = world.get_chunk(0, 0)
        growth._grow_kelp(chunk, 4, 4, 40, report)
        assert world.get_block(4, 41, 4) == Block.KELP
        assert report.get(Op.BLOCK_ADD_REMOVE) == 1

    def test_kelp_height_is_capped(self):
        world = _flat_world(ground_y=30)
        for y in range(30, SEA_LEVEL):
            world.set_block(4, y, 4, Block.WATER_SOURCE)
        world.set_block(4, 30, 4, Block.KELP)
        growth = self._engine(world)
        report = WorkReport()
        chunk = world.get_chunk(0, 0)
        for _ in range(3 * KELP_MAX_HEIGHT):
            growth._grow_kelp(chunk, 4, 4, 30, report)
        stalk = 0
        y = 30
        while world.get_block(4, y, 4) == Block.KELP:
            stalk += 1
            y += 1
        assert stalk <= KELP_MAX_HEIGHT

    def test_growth_counts_random_ticks(self):
        world = _flat_world()
        growth = self._engine(world)
        report = WorkReport()
        growth.tick(report)
        from repro.mlg.constants import RANDOM_TICK_SPEED

        assert report.get(Op.GROWTH) == RANDOM_TICK_SPEED  # one chunk

    def test_empty_world_is_noop(self):
        world = World()
        growth = self._engine(world)
        report = WorkReport()
        assert growth.tick(report) == 0
