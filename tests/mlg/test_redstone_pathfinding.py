"""Tests for the redstone engine and dynamic A* pathfinding."""

import numpy as np
import pytest
from terrain_oracle import on_block_changes

from repro.mlg.blocks import Block
from repro.mlg.pathfinding import PathFinder
from repro.mlg.redstone import (
    PISTON_FACINGS,
    REDSTONE_TICK_US,
    ClockCircuit,
    RedstoneEngine,
)
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import BlockChange, BlockChanges, World


def _flat_world(ground_y=60):
    world = World()
    world.fill(0, 0, 0, 15, ground_y - 1, 15, Block.STONE)
    return world


class TestClockCircuit:
    def test_requires_a_period(self):
        with pytest.raises(ValueError):
            ClockCircuit()

    def test_rejects_both_scheduling_modes(self):
        with pytest.raises(ValueError):
            ClockCircuit(period_us=100, period_ticks=2)

    def test_sim_time_clock_fires_on_schedule(self):
        world = _flat_world()
        engine = RedstoneEngine(world)
        clock = engine.add_clock(ClockCircuit(period_us=100_000, gate_count=10))
        report = WorkReport()
        engine.tick(50_000, report)
        assert clock.fired_pulses == 0
        engine.tick(100_000, report)
        assert clock.fired_pulses == 1
        assert report.get(Op.REDSTONE) == 10

    def test_missed_periods_pile_up(self):
        """Sim-time clocks fire once per elapsed period — the lag runaway
        ingredient: a slow tick makes multiple pulses due at once."""
        world = _flat_world()
        engine = RedstoneEngine(world)
        clock = engine.add_clock(ClockCircuit(period_us=100_000, gate_count=1))
        report = WorkReport()
        engine.tick(500_000, report)  # five periods elapsed at once
        assert clock.fired_pulses == 5

    def test_backlog_is_capped(self):
        world = _flat_world()
        engine = RedstoneEngine(world)
        clock = engine.add_clock(ClockCircuit(period_us=1_000, gate_count=1))
        report = WorkReport()
        engine.tick(10_000_000_000, report)
        assert clock.fired_pulses <= RedstoneEngine.MAX_BACKLOG_PULSES

    def test_game_tick_clock_fires_every_n_ticks(self):
        world = _flat_world()
        engine = RedstoneEngine(world)
        clock = engine.add_clock(ClockCircuit(period_ticks=2, gate_count=5))
        report = WorkReport()
        for tick_index in range(10):
            engine.tick(tick_index * 50_000, report, tick_index=tick_index)
        assert clock.fired_pulses == 5  # ticks 0, 2, 4, 6, 8

    def test_phase_at_period_is_normalized(self):
        # tick % period can never equal a phase >= period: before the
        # normalization such a clock never fired at all.
        clock = ClockCircuit(period_ticks=4, phase_ticks=4)
        assert clock.phase_ticks == 0
        world = _flat_world()
        engine = RedstoneEngine(world)
        engine.add_clock(clock)
        report = WorkReport()
        for tick_index in range(8):
            engine.tick(tick_index * 50_000, report, tick_index=tick_index)
        assert clock.fired_pulses == 2  # ticks 0 and 4

    def test_phase_beyond_period_wraps(self):
        clock = ClockCircuit(period_ticks=4, phase_ticks=6)
        assert clock.phase_ticks == 2
        world = _flat_world()
        engine = RedstoneEngine(world)
        engine.add_clock(clock)
        report = WorkReport()
        fired_at = []
        for tick_index in range(9):
            before = clock.fired_pulses
            engine.tick(tick_index * 50_000, report, tick_index=tick_index)
            if clock.fired_pulses > before:
                fired_at.append(tick_index)
        assert fired_at == [2, 6]

    def test_gate_op_routing(self):
        world = _flat_world()
        engine = RedstoneEngine(world)
        engine.add_clock(
            ClockCircuit(period_ticks=1, gate_count=7, gate_op=Op.BLOCK_UPDATE)
        )
        report = WorkReport()
        engine.tick(0, report, tick_index=0)
        assert report.get(Op.BLOCK_UPDATE) == 7
        assert report.get(Op.REDSTONE) == 0


class TestWirePropagation:
    def test_power_decays_along_wire(self):
        world = _flat_world()
        for i in range(16):
            world.set_block(i, 60, 0, Block.REDSTONE_WIRE)
        engine = RedstoneEngine(world)
        clock = ClockCircuit(period_ticks=1, sources=[(0, 60, 0)])
        engine.add_clock(clock)
        report = WorkReport()
        engine.tick(0, report, tick_index=0)
        assert world.get_aux(0, 60, 0) == 15
        assert world.get_aux(5, 60, 0) == 10
        assert world.get_aux(14, 60, 0) == 1

    def test_falling_edge_depowers_whole_net(self):
        # A 12-wire run driven by a game-tick clock: during the off phase
        # every wire must read aux 0, not just the source's direct
        # neighbors (the old depropagation stopped at distance 1).
        world = _flat_world()
        run_length = 12
        for i in range(run_length):
            world.set_block(i, 60, 0, Block.REDSTONE_WIRE)
        engine = RedstoneEngine(world)
        engine.add_clock(ClockCircuit(period_ticks=2, sources=[(0, 60, 0)]))
        report = WorkReport()
        engine.tick(0, report, tick_index=0)  # on phase
        assert [world.get_aux(i, 60, 0) for i in range(run_length)] == [
            15 - i for i in range(run_length)
        ]
        engine.tick(50_000, report, tick_index=2)  # off phase
        assert [world.get_aux(i, 60, 0) for i in range(run_length)] == [
            0
        ] * run_length

    def test_branched_net_fully_depowers(self):
        world = _flat_world()
        # A T-shaped net: trunk along x, branch along z at x=4.
        for i in range(10):
            world.set_block(i, 60, 0, Block.REDSTONE_WIRE)
        for j in range(1, 8):
            world.set_block(4, 60, j, Block.REDSTONE_WIRE)
        engine = RedstoneEngine(world)
        engine.add_clock(ClockCircuit(period_ticks=2, sources=[(0, 60, 0)]))
        report = WorkReport()
        engine.tick(0, report, tick_index=0)
        assert world.get_aux(4, 60, 7) > 0
        engine.tick(50_000, report, tick_index=2)
        assert all(world.get_aux(i, 60, 0) == 0 for i in range(10))
        assert all(world.get_aux(4, 60, j) == 0 for j in range(1, 8))

    def test_power_takes_strongest_path(self):
        # Two paths from the source to a junction wire: 3 steps direct,
        # 7 steps around.  Max-power relaxation must leave the junction
        # at 15-3 regardless of which branch the walk explores first.
        world = _flat_world()
        source = (0, 60, 0)
        world.set_block(*source, Block.REDSTONE_WIRE)
        for i in (1, 2):  # short path along x
            world.set_block(i, 60, 0, Block.REDSTONE_WIRE)
        junction = (3, 60, 0)
        world.set_block(*junction, Block.REDSTONE_WIRE)
        # Long path: up z, across x, back down z into the junction.
        for j in (1, 2):
            world.set_block(0, 60, j, Block.REDSTONE_WIRE)
        for i in (1, 2, 3):
            world.set_block(i, 60, 2, Block.REDSTONE_WIRE)
        world.set_block(3, 60, 1, Block.REDSTONE_WIRE)
        engine = RedstoneEngine(world)
        engine.add_clock(ClockCircuit(period_ticks=1, sources=[source]))
        report = WorkReport()
        engine.tick(0, report, tick_index=0)
        assert world.get_aux(*junction) == 12

    def test_piston_extends_when_powered(self):
        world = _flat_world()
        world.set_block(0, 60, 0, Block.REDSTONE_WIRE)
        world.set_block(1, 60, 0, Block.PISTON)
        world.set_aux(1, 60, 0, 2)  # face +x
        engine = RedstoneEngine(world)
        clock = ClockCircuit(period_ticks=2, sources=[(0, 60, 0)])
        engine.add_clock(clock)
        report = WorkReport()
        engine.tick(0, report, tick_index=0)  # pulse ON
        assert world.get_block(2, 60, 0) == Block.PISTON_HEAD
        engine.tick(50_000, report, tick_index=2)  # pulse OFF
        assert world.get_block(2, 60, 0) == Block.AIR

    def test_piston_pushes_block(self):
        world = _flat_world()
        world.set_block(0, 60, 0, Block.REDSTONE_WIRE)
        world.set_block(1, 60, 0, Block.PISTON)
        world.set_aux(1, 60, 0, 2)
        world.set_block(2, 60, 0, Block.COBBLESTONE)
        engine = RedstoneEngine(world)
        engine.add_clock(ClockCircuit(period_ticks=1, sources=[(0, 60, 0)]))
        report = WorkReport()
        engine.tick(0, report, tick_index=0)
        assert world.get_block(3, 60, 0) == Block.COBBLESTONE
        assert world.get_block(2, 60, 0) == Block.PISTON_HEAD

    def test_piston_facings_table(self):
        assert len(PISTON_FACINGS) == 6
        assert (0, 1, 0) in PISTON_FACINGS

    def test_repeater_delays_propagation(self):
        world = _flat_world()
        world.set_block(0, 60, 0, Block.REDSTONE_WIRE)
        world.set_block(1, 60, 0, Block.REPEATER)
        world.set_aux(1, 60, 0, 2)  # 2 redstone-tick delay
        world.set_block(2, 60, 0, Block.REDSTONE_WIRE)
        engine = RedstoneEngine(world)
        engine.add_clock(ClockCircuit(period_ticks=1, sources=[(0, 60, 0)]))
        report = WorkReport()
        engine.tick(0, report, tick_index=0)
        assert world.get_aux(2, 60, 0) == 0  # not yet
        engine.tick(2 * REDSTONE_TICK_US, report, tick_index=4)
        assert world.get_aux(2, 60, 0) == 15  # re-emitted at full power

    def test_observer_fires_on_neighbor_change(self):
        world = _flat_world()
        world.set_block(5, 61, 5, Block.OBSERVER)
        engine = RedstoneEngine(world)
        engine.register_observer(5, 61, 5)
        report = WorkReport()
        engine.on_block_changes(
            BlockChanges.from_records(
                [BlockChange(5, 60, 5, Block.AIR, Block.STONE)]
            ),
            now_us=0,
        )
        assert engine.tick(REDSTONE_TICK_US, report) == 1  # one pulse
        assert report.get(Op.REDSTONE) >= 1

    def test_no_observers_means_no_overhead(self):
        world = _flat_world()
        engine = RedstoneEngine(world)
        engine.on_block_changes(
            BlockChanges.from_records(
                [BlockChange(5, 60, 5, Block.AIR, Block.STONE)] * 100
            ),
            now_us=0,
        )
        # Nothing was scheduled: no event position anchors a chunk.
        assert engine.anchored_chunks() == set()

    def test_observer_pulses_equal_the_per_change_loop(self, monkeypatch):
        """Pulses queue change by change, each change's neighbours in
        ``neighbors6`` order: the heaps hold the same (due, seq, payload)."""
        rng = np.random.default_rng(9)
        observers = [(5, 61, 5), (6, 61, 5), (-3, 0, 7), (5, 62, 5), (0, 1, -16)]
        near = [
            (x + dx, y + dy, z + dz)
            for x, y, z in observers
            for dx, dy, dz in ((1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 1, 0))
        ]
        far = rng.integers(-30, 30, size=(40, 3)).tolist()
        cells = [tuple(near[i]) for i in rng.integers(0, len(near), 60)]
        cells += [tuple(c) for c in far]
        rng.shuffle(cells)
        changes = BlockChanges.from_records(
            BlockChange(x, y, z, Block.AIR, Block.STONE) for x, y, z in cells
        )
        heaps = []
        for scan in (RedstoneEngine.on_block_changes, on_block_changes):
            with monkeypatch.context() as patch:
                patch.setattr(RedstoneEngine, "on_block_changes", scan)
                engine = RedstoneEngine(_flat_world())
                engine.add_clock(ClockCircuit(period_us=300_000))
                for pos in observers + observers[:2]:
                    engine.register_observer(*pos)
                engine.on_block_changes(changes, now_us=1_000)
                engine.on_block_changes(changes, now_us=51_000)
                heaps.append([
                    (due, seq, payload)
                    for due, seq, _, (_, payload) in engine._heap
                ])
        assert heaps[0] == heaps[1]
        assert len(heaps[0]) > 100


class TestPathfinding:
    def test_straight_path_on_flat_ground(self):
        world = _flat_world()
        finder = PathFinder(world)
        result = finder.find_path((0, 60, 0), (6, 60, 0))
        assert result.found
        assert result.path[0] == (0, 60, 0)
        assert result.path[-1] == (6, 60, 0)
        assert len(result.path) == 7

    def test_path_around_wall(self):
        world = _flat_world()
        # A wall across x=3 with a gap at z=9.
        for z in range(0, 9):
            for y in range(60, 63):
                world.set_block(3, y, z, Block.STONE)
        finder = PathFinder(world)
        result = finder.find_path((0, 60, 0), (6, 60, 0))
        assert result.found
        assert any(pos[2] >= 9 for pos in result.path), "path must detour"

    def test_unreachable_goal_respects_budget(self):
        world = _flat_world()
        # Box in the goal completely.
        for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            for y in range(60, 64):
                world.set_block(10 + dx, y, 10 + dz, Block.STONE)
        world.set_block(10, 62, 10, Block.STONE)
        finder = PathFinder(world, max_expansions=150)
        result = finder.find_path((0, 60, 0), (10, 60, 10))
        assert not result.found
        assert result.expanded <= 150

    def test_expansions_recorded_in_report(self):
        world = _flat_world()
        finder = PathFinder(world)
        report = WorkReport()
        finder.find_path((0, 60, 0), (8, 60, 8), report)
        assert report.get(Op.PATHFIND_NODE) > 0

    def test_step_up_and_down(self):
        world = _flat_world()
        world.set_block(3, 60, 0, Block.STONE)  # a one-block step
        finder = PathFinder(world)
        result = finder.find_path((0, 60, 0), (6, 60, 0))
        assert result.found

    def test_unwalkable_start_fails_fast(self):
        world = _flat_world()
        finder = PathFinder(world)
        result = finder.find_path((0, 10, 0), (5, 60, 5))  # inside stone
        assert not result.found
        assert result.expanded == 1

    def test_mob_can_walk_on_water(self):
        world = _flat_world(ground_y=58)
        world.set_block(4, 58, 4, Block.WATER_SOURCE)
        finder = PathFinder(world)
        assert finder.is_walkable(4, 59, 4)
