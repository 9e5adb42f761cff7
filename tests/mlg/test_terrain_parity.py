"""Scalar-vs-batched parity for the terrain engines and bulk world APIs.

The batched fluid/growth engines must produce the *bit-identical* final
world state (blocks + aux + heightmap) as the cell-by-cell code they
replaced (``terrain_oracle.py``) on recorded scenarios — the contract that
makes the numpy batching a pure performance change rather than a
simulation-model change.
"""

import numpy as np
import pytest
from terrain_oracle import (
    DequeCellQueue,
    ScalarFluidEngine,
    fill_per_cell,
    growth_tick_scalar,
)

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import CHUNK_SIZE, WORLD_HEIGHT
from repro.mlg.fluids import (
    LAVA_TICK_INTERVAL,
    WATER_TICK_INTERVAL,
    FluidEngine,
)
from repro.mlg.growth import GrowthEngine
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import BlockChange, World, pack_cells
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.store import world_hash


def _flat_world(ground_y=40, size=3):
    world = World()
    edge = 16 * size - 1
    world.fill(0, 0, 0, edge, ground_y - 1, edge, Block.STONE)
    return world


def _assert_worlds_identical(a: World, b: World):
    keys_a = {(c.cx, c.cz) for c in a.loaded_chunks()}
    keys_b = {(c.cx, c.cz) for c in b.loaded_chunks()}
    assert keys_a == keys_b
    for key in sorted(keys_a):
        ca, cb = a.get_chunk(*key), b.get_chunk(*key)
        np.testing.assert_array_equal(ca.blocks, cb.blocks, err_msg=str(key))
        np.testing.assert_array_equal(ca.aux, cb.aux, err_msg=str(key))
        np.testing.assert_array_equal(
            ca.heightmap, cb.heightmap, err_msg=str(key)
        )


# -- recorded fluid scenarios -------------------------------------------------
#
# Each scenario builds a world, seeds the fluid queue, and is run to
# quiescence on both engines; it must drain its queue within the tick cap
# so the comparison really is of a settled final state.


def _wake(fluids: FluidEngine, x: int, y: int, z: int) -> None:
    """Queue the fluid cell ``(x, y, z)`` as a block change does: as a
    face neighbour of the changed cell, here the empty one above it."""
    fluids.schedule_neighbors(x, y + 1, z)


def _scenario_dam_break(world: World, fluids: FluidEngine):
    """Water spilling from a ledge down a two-step terrace."""
    # Carve a stepped pit into the 3x3-chunk slab.
    world.fill(8, 36, 8, 24, 40, 30, Block.AIR)
    world.fill(8, 4, 8, 24, 38, 30, Block.STONE)
    world.fill(14, 4, 8, 24, 36, 30, Block.STONE)
    world.fill(14, 37, 8, 24, 37, 30, Block.AIR)
    # A line of sources on the ledge.
    for z in range(10, 28):
        world.set_block(8, 41, z, Block.WATER_SOURCE)
        _wake(fluids, 8, 41, z)


def _scenario_drain(world: World, fluids: FluidEngine):
    """An established flow sheet whose feeding sources vanish."""
    for z in range(12, 24):
        for i, x in enumerate(range(10, 17)):
            world.set_block(x, 41, z, Block.WATER_FLOW, aux=7 - i)
    # Sources fed the sheet from x=9; remove them and wake the edge.
    for z in range(12, 24):
        _wake(fluids, 10, 41, z)


def _scenario_lava_pond(world: World, fluids: FluidEngine):
    """Lava spreading over a step, plus an unsupported lava flow."""
    world.fill(20, 41, 20, 26, 41, 26, Block.STONE)  # a raised slab
    for pos in ((22, 42, 22), (24, 42, 24)):
        world.set_block(*pos, Block.LAVA)
        _wake(fluids, *pos)
    world.set_block(10, 41, 10, Block.LAVA)
    world.set_aux(10, 41, 10, 1)  # stray flow with no source: must clear
    _wake(fluids, 10, 41, 10)


def _scenario_mixed(world: World, fluids: FluidEngine):
    """Water and lava queues active in the same ticks."""
    _scenario_drain(world, fluids)
    _scenario_lava_pond(world, fluids)


def _scenario_origin_spill(world: World, fluids: FluidEngine):
    """Water and lava spreading across x = 0 and z = 0, where the queue's
    keys and the write merge's sort keys order cells differently."""
    world.fill(-16, 38, -16, -1, 39, 47, Block.STONE)
    world.fill(0, 38, -16, 47, 39, -1, Block.STONE)
    for pos in ((0, 41, 0), (-1, 41, 3), (2, 41, -1)):
        world.set_block(*pos, Block.WATER_SOURCE)
        _wake(fluids, *pos)
    world.set_block(-5, 41, -5, Block.LAVA)
    _wake(fluids, -5, 41, -5)


FLUID_SCENARIOS = {
    "dam_break": _scenario_dam_break,
    "drain": _scenario_drain,
    "lava_pond": _scenario_lava_pond,
    "mixed": _scenario_mixed,
    "origin_spill": _scenario_origin_spill,
}


def _run_fluid_scenario(build, engine=FluidEngine, max_ticks: int = 4000):
    world = _flat_world()
    fluids = engine(world)
    build(world, fluids)
    report = WorkReport()
    tick = 0
    while fluids.pending and tick < max_ticks:
        fluids.tick(tick, report)
        tick += 1
    assert fluids.pending == 0, "scenario must reach quiescence"
    return world, report


class TestFluidParity:
    @pytest.mark.parametrize("name", sorted(FLUID_SCENARIOS))
    def test_final_state_bit_identical(self, name):
        build = FLUID_SCENARIOS[name]
        world_scalar, _ = _run_fluid_scenario(build, ScalarFluidEngine)
        world_batched, _ = _run_fluid_scenario(build)
        _assert_worlds_identical(world_scalar, world_batched)

    @pytest.mark.parametrize("name", sorted(FLUID_SCENARIOS))
    def test_scenarios_do_real_work(self, name):
        _, report = _run_fluid_scenario(FLUID_SCENARIOS[name])
        assert report.get(Op.FLUID) > 0
        assert report.get(Op.BLOCK_ADD_REMOVE) > 0


class _ScalarWake(FluidEngine):
    """The batched engine with the ``deque`` + ``set`` queue, waking a
    cleared cell's neighbors as it used to: cell by cell, six
    ``get_block`` calls each."""

    def __init__(self, world, max_updates_per_tick=4096):
        super().__init__(world, max_updates_per_tick)
        self._water, self._lava = DequeCellQueue(), DequeCellQueue()

    def schedule_neighbors_bulk(self, xs, ys, zs):
        for x, y, z in zip(xs, ys, zs):
            for cell in self.world.neighbors6(int(x), int(y), int(z)):
                block = self.world.get_block(*cell)
                if block in (Block.WATER_SOURCE, Block.WATER_FLOW):
                    self._water.push(pack_cells(*np.array([cell]).T))
                elif block == Block.LAVA:
                    self._lava.push(pack_cells(*np.array([cell]).T))


class TestFluidQueueSequence:
    """Which cells a budget-limited tick reaches is decided by the order of
    the queue, so the bulk wake-up must queue exactly what the per-cell
    one did, in the same order."""

    @pytest.mark.parametrize("name", sorted(FLUID_SCENARIOS))
    @pytest.mark.parametrize("budget", [3, 7])
    def test_queue_equals_per_cell_wakeups(self, name, budget):
        runs = []
        for engine in (FluidEngine, _ScalarWake):
            world = _flat_world()
            fluids = engine(world, max_updates_per_tick=budget)
            FLUID_SCENARIOS[name](world, fluids)
            fluids.schedule_neighbors(10, 42, 12)
            queues, report = [], WorkReport()
            for tick in range(0, 1500, WATER_TICK_INTERVAL):
                fluids.tick(tick, report)
                queues.append(fluids.queued_cells())
            runs.append((world, queues, report.counts))
        (world_a, queues_a, counts_a), (world_b, queues_b, counts_b) = runs
        assert queues_a == queues_b
        assert max(len(w) + len(l) for w, l in queues_a) > budget, (
            "the budget must have cut a tick short"
        )
        assert counts_a == counts_b
        _assert_worlds_identical(world_a, world_b)

    def test_bulk_wakeup_is_the_scalar_one_block_by_block(self):
        def woken(engine):
            world = _flat_world()
            fluids = engine(world)
            world.fill(8, 40, 8, 14, 44, 14, Block.WATER_SOURCE)
            world.fill(10, 40, 10, 12, 42, 12, Block.LAVA)
            # One-cell-wide cuts: both neighbors across each are fluid.
            world.fill(11, 41, 9, 11, 43, 13, Block.AIR, log=True)
            world.fill(9, 42, 11, 13, 42, 11, Block.AIR, log=True)
            world.fill(9, 43, 9, 13, 43, 13, Block.AIR, log=True)
            changes = world.drain_changes()
            fluids.schedule_neighbors_bulk(changes.x, changes.y, changes.z)
            return fluids.queued_cells()

        water, lava = woken(FluidEngine)
        assert (water, lava) == woken(ScalarFluidEngine)
        assert len(water) > 50 and len(lava) > 5
        assert len(set(water)) == len(water)

    def test_an_unpackable_cell_is_refused_not_aliased(self):
        world = _flat_world()
        fluids = FluidEngine(world)
        for x in (-(2**23), 2**23):
            world.set_block(x, 41, 5, Block.WATER_SOURCE)
        _wake(fluids, -(2**23), 41, 5)
        with pytest.raises(ValueError, match=r"\(8388608, 41, 5\)"):
            _wake(fluids, 2**23, 41, 5)
        assert fluids.queued_cells() == ([(-(2**23), 41, 5)], [])


class TestGrowthParity:
    def _planted_world(self):
        world = _flat_world(ground_y=40, size=2)
        for x in range(0, 32, 2):
            for z in range(0, 32, 2):
                world.set_block(x, 40, z, Block.CROP, aux=0)
        for x in range(1, 32, 8):
            world.set_block(x, 40, 31, Block.SAPLING)
            for y in range(40, 52):
                world.set_block(x + 1, y, 31, Block.WATER_SOURCE)
            world.set_block(x + 1, 40, 31, Block.KELP)
        return world

    def test_same_seed_bit_identical(self):
        report_a, report_b = WorkReport(), WorkReport()
        world_a = self._planted_world()
        growth_a = GrowthEngine(world_a, np.random.default_rng(123))
        world_b = self._planted_world()
        growth_b = GrowthEngine(world_b, np.random.default_rng(123))
        matured_a: list = []
        matured_b: list = []
        for _ in range(2000):
            growth_a.tick(report_a)
            matured_a.extend(growth_a.matured)
        for _ in range(2000):
            growth_tick_scalar(growth_b, report_b)
            matured_b.extend(growth_b.matured)
        _assert_worlds_identical(world_a, world_b)
        assert matured_a == matured_b
        assert report_a.get(Op.GROWTH) == report_b.get(Op.GROWTH)
        assert report_a.get(Op.BLOCK_ADD_REMOVE) == report_b.get(
            Op.BLOCK_ADD_REMOVE
        )


# -- bulk world API parity ----------------------------------------------------


class TestSetBlocksBulk:
    def test_matches_scalar_set_block(self):
        rng = np.random.default_rng(7)
        n = 400
        xs = rng.integers(-8, 40, size=n)
        ys = rng.integers(-2, WORLD_HEIGHT + 2, size=n)
        zs = rng.integers(-8, 40, size=n)
        # Unique positions (the bulk API's contract).
        seen = set()
        keep = []
        for i in range(n):
            key = (int(xs[i]), int(ys[i]), int(zs[i]))
            if key not in seen:
                seen.add(key)
                keep.append(i)
        xs, ys, zs = xs[keep], ys[keep], zs[keep]
        blocks = rng.choice(
            [Block.AIR, Block.STONE, Block.WATER_FLOW, Block.SAND],
            size=len(xs),
        )
        auxs = rng.integers(0, 8, size=len(xs))

        world_a = _flat_world(size=2)
        world_b = _flat_world(size=2)
        changed_scalar = 0
        for x, y, z, b, a in zip(xs, ys, zs, blocks, auxs):
            if world_a.set_block(int(x), int(y), int(z), int(b),
                                 aux=int(a)) is not None:
                changed_scalar += 1
        changed_bulk = world_b.set_blocks_bulk(xs, ys, zs, blocks, auxs)
        assert changed_bulk == changed_scalar
        _assert_worlds_identical(world_a, world_b)
        # The change log carries the same entries (order may differ
        # between the scalar input order and chunk grouping — it doesn't:
        # bulk appends in input order too).
        assert (
            world_a.drain_changes().records()
            == world_b.drain_changes().records()
        )

    def test_carving_several_cells_of_a_column_in_one_call(self):
        """Column tops are rescanned once per write batch: a batch that
        carves a column's top and the cells under it, while building
        another up, leaves every heightmap what a full rescan gives."""
        world = _flat_world(ground_y=40, size=2)
        world.fill(3, 40, 3, 9, 47, 20, Block.STONE)  # tops at 48
        world.set_block(5, 60, 5, Block.GLASS)  # a floating top
        xs, ys, zs, ids = [], [], [], []
        for x, z, carve in (
            (3, 3, range(44, 48)),  # the top four
            (4, 17, range(0, 48)),  # the whole column, across a chunk edge
            (5, 5, (60, 47, 46, 20)),  # top first, then below it
            (6, 6, (30, 31)),  # nothing at the top: heightmap untouched
            (7, 7, (47, 45)),  # the top and a gap
        ):
            for y in carve:
                xs.append(x), ys.append(y), zs.append(z), ids.append(Block.AIR)
        for y in (48, 49, 50):  # and one column grows in the same call
            xs.append(8), ys.append(y), zs.append(8), ids.append(Block.SAND)
        changed = world.set_blocks_bulk(xs, ys, zs, ids)
        assert changed == len(xs)
        tops = {
            (x, z): world.column_height(x, z)
            for x, z in ((3, 3), (4, 17), (5, 5), (6, 6), (7, 7), (8, 8))
        }
        assert tops == {
            (3, 3): 44, (4, 17): 0, (5, 5): 46, (6, 6): 48, (7, 7): 47,
            (8, 8): 51,
        }
        for chunk in world.loaded_chunks():
            np.testing.assert_array_equal(
                chunk.heightmap, column_tops(chunk.blocks != Block.AIR)
            )

    def test_aux_bulk_matches_get_aux(self):
        world = _flat_world(size=2)
        world.set_block(3, 41, 3, Block.WATER_FLOW, aux=5)
        world.set_block(17, 41, 9, Block.WATER_FLOW, aux=2)
        xs = np.array([3, 17, 100, 3])
        ys = np.array([41, 41, 41, 300])
        zs = np.array([3, 9, 100, 3])
        out = world.aux_bulk(xs, ys, zs)
        assert out.tolist() == [5, 2, 0, 0]

    def test_set_aux_bulk(self):
        world = _flat_world(size=2)
        world.set_block(3, 41, 3, Block.WATER_FLOW, aux=1)
        world.set_aux_bulk(
            np.array([3]), np.array([41]), np.array([3]), np.array([6])
        )
        assert world.get_aux(3, 41, 3) == 6


def _scalar_fill(world, x0, y0, z0, x1, y1, z1, block_id, log=False):
    """A fill as ``set_block`` calls, x then z then y."""
    count = 0
    for x in range(x0, x1 + 1):
        for z in range(z0, z1 + 1):
            for y in range(y0, y1 + 1):
                if world.set_block(x, y, z, block_id, log=log) is not None:
                    count += 1
    return count


def _fills_crossing_negative(world, fill):
    """Nine chunks across negative x and z, eight of them new."""
    return [fill(world, -21, 50, -18, 2, 58, 3, Block.TNT)]


def _fills_clipped_y(world, fill):
    return [
        fill(world, -3, -9, 2, 9, 4, 9, Block.STONE),
        fill(world, 2, 119, -6, 18, 140, 6, Block.GLASS),
    ]


def _fills_air_carves_tops(world, fill):
    """Terrain tops at 62-75 carved to 58, then below that, then a carve
    under the surface that must leave the heightmap alone."""
    return [
        fill(world, -6, 58, -6, 20, 90, 9, Block.AIR),
        fill(world, 4, 40, -3, 12, 59, 4, Block.AIR),
        fill(world, 30, 40, 30, 40, 50, 40, Block.AIR),
    ]


def _fills_nonzero_aux(world, fill):
    """Cells that already hold the fill's block (or air) but a non-zero
    aux change, and lose the aux."""
    for x, z in ((1, 1), (5, 17), (-3, 4)):
        world.set_block(x, 70, z, Block.SAND, aux=5, log=False)
        world.set_aux(x, 90, z, 3)
    return [
        fill(world, -4, 70, 0, 6, 71, 18, Block.SAND),
        fill(world, -4, 90, 0, 6, 90, 18, Block.AIR),
    ]


def _fills_noop_refill(world, fill):
    """A refill of what is there changes nothing and dirties nothing."""
    first = fill(world, -5, 80, -5, 20, 83, 6, Block.OBSIDIAN)
    for chunk in world.loaded_chunks():
        chunk.dirty = False
    return [first, fill(world, -5, 80, -5, 20, 83, 6, Block.OBSIDIAN)]


class TestFillVectorized:
    @pytest.mark.parametrize("log", [False, True])
    @pytest.mark.parametrize("scenario", [
        _fills_crossing_negative, _fills_clipped_y, _fills_air_carves_tops,
        _fills_nonzero_aux, _fills_noop_refill,
    ], ids=lambda f: f.__name__.removeprefix("_fills_"))
    def test_matches_scalar_reference(self, scenario, log):
        """``World.fill`` against its per-cell body and against the scalar
        writes, on generated terrain."""
        runs = []
        for fill in (World.fill, fill_per_cell, _scalar_fill):
            world = World(generator=TerrainGenerator(seed=7))
            world.ensure_chunk(0, 0)
            counts = scenario(
                world, lambda w, *args: fill(w, *args, log=log)
            )
            runs.append((counts, world))
        (counts, world), *references = runs
        assert sum(counts) > 0 and counts[0] > 0
        changes = world.drain_changes()
        assert (len(changes) == sum(counts)) == log
        for ref_counts, ref in references:
            assert counts == ref_counts
            assert world_hash(world) == world_hash(ref)
            assert list(world.loaded_keys()) == list(ref.loaded_keys())
            for key in ref.loaded_keys():
                np.testing.assert_array_equal(
                    world.get_chunk(*key).heightmap,
                    ref.get_chunk(*key).heightmap, err_msg=str(key),
                )
            assert world.dirty_keys() == ref.dirty_keys()
            ref_changes = ref.drain_changes()
            for name in BlockChange._fields:
                np.testing.assert_array_equal(
                    getattr(changes, name), getattr(ref_changes, name),
                    err_msg=name, strict=True,
                )

    def test_air_fill_lowers_heightmap(self):
        world = _flat_world(size=1, ground_y=40)
        world.fill(2, 30, 2, 5, 45, 5, Block.AIR)
        assert world.column_height(3, 3) == 30
        world_scalar = _flat_world(size=1, ground_y=40)
        for x in range(2, 6):
            for z in range(2, 6):
                for y in range(30, 46):
                    world_scalar.set_block(x, y, z, Block.AIR)
        _assert_worlds_identical(world, world_scalar)

    def test_fill_outside_the_world_is_a_no_op(self):
        world = World(generator=TerrainGenerator(seed=7))
        assert world.fill(-20, -9, -20, 20, -1, 20, Block.STONE, log=True) == 0
        assert world.fill(-20, WORLD_HEIGHT, -20, 20, 300, 20, Block.AIR) == 0
        assert world.loaded_chunk_count == 0
        assert len(world.drain_changes()) == 0

    def test_out_of_bounds_y_is_clamped(self):
        world = World()
        count = world.fill(0, -5, 0, 1, WORLD_HEIGHT + 5, 1, Block.STONE)
        assert count == 2 * 2 * WORLD_HEIGHT
        assert world.column_height(0, 0) == WORLD_HEIGHT
