"""Tests for the block registry and the chunked voxel world."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mlg.blocks import BLOCK_SPECS, Block, is_solid, spec
from repro.mlg.constants import CHUNK_SIZE, WORLD_HEIGHT
from repro.mlg.world import (
    BlockChange,
    BlockChanges,
    Chunk,
    World,
    pack_cells,
    unpack_cells,
)


class TestBlockRegistry:
    def test_every_block_id_has_a_spec(self):
        for block_id in Block.ALL:
            assert spec(block_id).name

    def test_air_is_not_solid_and_not_opaque(self):
        assert not is_solid(Block.AIR)
        assert not spec(Block.AIR).opaque

    def test_stone_is_solid_and_opaque(self):
        assert is_solid(Block.STONE)
        assert spec(Block.STONE).opaque

    def test_water_is_fluid(self):
        assert spec(Block.WATER_SOURCE).fluid
        assert spec(Block.WATER_FLOW).fluid
        assert not spec(Block.STONE).fluid

    def test_gravity_blocks(self):
        assert spec(Block.SAND).gravity
        assert spec(Block.GRAVEL).gravity
        assert not spec(Block.STONE).gravity

    def test_light_emitters(self):
        assert spec(Block.TORCH).light_emission > 0
        assert spec(Block.LAVA).light_emission == 15
        assert spec(Block.STONE).light_emission == 0

    def test_bedrock_is_blast_proof(self):
        assert spec(Block.BEDROCK).blast_resistance > 1000

    def test_tnt_has_zero_resistance(self):
        assert spec(Block.TNT).blast_resistance == 0.0

    def test_unknown_block_raises(self):
        with pytest.raises(ValueError):
            spec(255)

    def test_ids_are_dense_and_uint8_safe(self):
        assert max(Block.ALL) < 256
        assert set(BLOCK_SPECS) == set(Block.ALL)


class TestChunk:
    def test_new_chunk_is_all_air(self):
        chunk = Chunk(0, 0)
        assert int(chunk.blocks.sum()) == 0
        assert int(chunk.heightmap.max()) == 0

    def test_heightmap_recompute(self):
        def generator(chunk):
            chunk.blocks[3, 4, 10] = Block.STONE
            chunk.blocks[3, 4, 20] = Block.STONE

        chunk = World(generator=generator).ensure_chunk(0, 0)
        assert chunk.heightmap[3, 4] == 21
        assert chunk.heightmap[0, 0] == 0

    def test_update_height_single_column(self):
        chunk = Chunk(0, 0)
        chunk.blocks[5, 5, 30] = Block.DIRT
        chunk.update_height_at(5, 5)
        assert chunk.heightmap[5, 5] == 31

    def test_nbytes_accounts_all_arrays(self):
        chunk = Chunk(0, 0)
        expected = (
            chunk.blocks.nbytes
            + chunk.aux.nbytes
            + chunk.skylight.nbytes
            + chunk.blocklight.nbytes
            + chunk.heightmap.nbytes
        )
        assert Chunk.NBYTES == expected


class TestWorld:
    def test_get_unloaded_is_air(self):
        world = World()
        assert world.get_block(1000, 64, 1000) == Block.AIR

    def test_set_get_roundtrip(self):
        world = World()
        world.set_block(5, 64, 9, Block.STONE)
        assert world.get_block(5, 64, 9) == Block.STONE

    def test_negative_coordinates(self):
        world = World()
        world.set_block(-3, 10, -17, Block.DIRT)
        assert world.get_block(-3, 10, -17) == Block.DIRT
        assert world.get_block(-3, 10, -18) == Block.AIR

    def test_out_of_vertical_bounds(self):
        world = World()
        assert world.set_block(0, -1, 0, Block.STONE) is None
        assert world.set_block(0, WORLD_HEIGHT, 0, Block.STONE) is None
        assert world.get_block(0, -5, 0) == Block.AIR

    def test_change_log_records_mutations(self):
        world = World()
        world.set_block(1, 60, 1, Block.STONE)
        world.set_block(1, 60, 1, Block.AIR)
        changes = world.drain_changes().records()
        assert changes == [
            BlockChange(1, 60, 1, Block.AIR, Block.STONE),
            BlockChange(1, 60, 1, Block.STONE, Block.AIR),
        ]
        assert world.drain_changes().records() == []

    def test_change_log_columns_keep_write_order(self):
        """Scalar writes, a logged fill and a bulk write, interleaved: the
        drained columns hold the records the per-cell writes return, in
        write order."""
        rng = np.random.default_rng(3)
        xs = rng.integers(-20, 20, 300)
        zs = rng.integers(-20, 20, 300)
        _, first = np.unique(xs * 1000 + zs, return_index=True)
        xs, zs = xs[np.sort(first)], zs[np.sort(first)]
        ys = np.full(xs.size, 61)
        ids = rng.choice([Block.AIR, Block.STONE, Block.SAND], xs.size)

        def writes(world, bulk):
            """Every write, and what the per-cell version of it returns."""
            out = [world.set_block(1, 60, 1, Block.STONE)]
            out.append(world.set_block(-2, 60, 1, Block.DIRT))
            if bulk:
                world.fill(-1, 58, 0, 2, 61, 17, Block.SAND, log=True)
            else:
                for x in range(-1, 3):
                    for z in range(0, 18):
                        for y in range(58, 62):
                            out.append(world.set_block(x, y, z, Block.SAND))
            out.append(world.set_block(1, 60, 1, Block.AIR))
            out.append(world.set_block(5, 70, 5, Block.GLASS, log=False))
            out.pop()  # not logged
            if bulk:
                world.set_blocks_bulk(xs, ys, zs, ids)
            else:
                for x, y, z, block in zip(
                    xs.tolist(), ys.tolist(), zs.tolist(), ids.tolist()
                ):
                    out.append(world.set_block(x, y, z, block))
            out.append(world.set_block(-2, 60, 1, Block.DIRT))  # a no-op
            out.append(world.set_block(-2, 61, 1, Block.DIRT))
            return [change for change in out if change is not None]

        world = World()
        writes(world, bulk=True)
        expected = writes(World(), bulk=False)
        changes = world.drain_changes()
        assert isinstance(changes, BlockChanges)
        assert len(changes) == len(expected) > 400
        assert changes.records() == expected
        for name in BlockChange._fields:
            assert getattr(changes, name).dtype == np.int64, name
        assert BlockChanges.from_records(expected).records() == expected
        empty = world.drain_changes()
        assert len(empty) == 0 and not empty and empty.records() == []

    def test_noop_set_is_not_logged(self):
        world = World()
        world.set_block(1, 60, 1, Block.STONE)
        world.drain_changes()
        assert world.set_block(1, 60, 1, Block.STONE) is None
        assert len(world.drain_changes()) == 0

    def test_log_false_suppresses_change_log(self):
        world = World()
        world.set_block(1, 60, 1, Block.STONE, log=False)
        assert len(world.drain_changes()) == 0

    def test_heightmap_updates_on_set(self):
        world = World()
        world.set_block(4, 50, 4, Block.STONE)
        assert world.column_height(4, 4) == 51
        world.set_block(4, 50, 4, Block.AIR)
        assert world.column_height(4, 4) == 0

    def test_generator_invoked_lazily(self):
        calls = []

        def generator(chunk):
            calls.append((chunk.cx, chunk.cz))
            chunk.blocks[:, :, 0] = Block.BEDROCK

        world = World(generator=generator)
        assert world.get_block(0, 0, 0) == Block.AIR  # reads don't generate
        world.ensure_chunk(0, 0)
        assert calls == [(0, 0)]
        assert world.get_block(0, 0, 0) == Block.BEDROCK
        world.ensure_chunk(0, 0)
        assert calls == [(0, 0)]  # second call is a no-op

    def test_chunk_coords(self):
        # A write lands in (and creates) the chunk holding its column.
        for (x, z), key in (
            ((0, 0), (0, 0)), ((15, 15), (0, 0)), ((16, 0), (1, 0)),
            ((-1, -16), (-1, -1)),
        ):
            world = World()
            world.set_block(x, 7, z, Block.STONE)
            assert list(world.loaded_keys()) == [key]
            chunk = world.get_chunk(*key)
            assert chunk.blocks[x & 15, z & 15, 7] == Block.STONE

    def test_fill_counts_and_validates(self):
        world = World()
        count = world.fill(0, 10, 0, 3, 11, 3, Block.STONE)
        assert count == 4 * 4 * 2
        with pytest.raises(ValueError):
            world.fill(5, 5, 5, 4, 5, 5, Block.STONE)

    def test_fill_writes_exactly_its_cuboid(self):
        world = World()
        world.fill(0, 10, 0, 2, 10, 2, Block.TNT)
        around = world.blocks_cuboid(-1, 9, -1, 3, 11, 3)
        assert int((around == Block.TNT).sum()) == 9
        assert (around[1:4, 1:4, 1] == Block.TNT).all()

    def test_column_height_follows_set_block(self):
        world = World()
        world.set_block(2, 40, 3, Block.STONE)
        world.set_block(20, 55, 30, Block.STONE)
        heights = [world.column_height(x, z) for x, z in
                   ((2, 3), (20, 30), (100, 100))]
        assert heights == [41, 56, 0]

    def test_nbytes_grows_with_chunks(self):
        world = World()
        world.ensure_chunk(0, 0)
        one = world.nbytes
        world.ensure_chunk(1, 0)
        assert world.nbytes == 2 * one


class TestCellKeys:
    def test_packing_is_injective_over_its_range(self):
        xz = [-(2**23), -(2**23) + 1, -17, -1, 0, 1, 16, 2**23 - 2, 2**23 - 1]
        ys = [-(2**15), -1, 0, 1, WORLD_HEIGHT, 2**15 - 1]
        x, y, z = (a.ravel() for a in np.meshgrid(xz, ys, xz, indexing="ij"))
        keys = pack_cells(x, y, z)
        assert np.unique(keys).size == keys.size
        for axis, back in zip((x, y, z), unpack_cells(keys)):
            np.testing.assert_array_equal(axis, back)

    @pytest.mark.parametrize(
        "cell",
        [
            (2**23, 60, 0),
            (-(2**23) - 1, 60, 0),
            (0, 60, 2**23),
            (3, 2**15, -4),
            (3, -(2**15) - 1, -4),
        ],
    )
    def test_a_cell_outside_it_is_refused_by_name(self, cell):
        # Past the range, x = 2**23 would share -2**23's key.
        x, y, z = np.array([(5, 60, 5), cell, (6, 60, 6)]).T
        with pytest.raises(ValueError, match=re.escape(str(cell))):
            pack_cells(x, y, z)


@given(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=0, max_value=WORLD_HEIGHT - 1),
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from(Block.ALL),
)
def test_property_set_get_roundtrip(x, y, z, block_id):
    world = World()
    world.set_block(x, y, z, block_id)
    assert world.get_block(x, y, z) == block_id


@given(st.lists(
    st.tuples(
        st.integers(min_value=-64, max_value=64),
        st.integers(min_value=0, max_value=WORLD_HEIGHT - 1),
        st.integers(min_value=-64, max_value=64),
    ),
    min_size=1, max_size=30,
))
def test_property_heightmap_consistent_after_mutations(positions):
    world = World()
    for x, y, z in positions:
        world.set_block(x, y, z, Block.STONE)
    for x, y, z in positions:
        chunk = world.get_chunk(x >> 4, z >> 4)
        column = chunk.blocks[x & 15, z & 15]
        top = int(np.flatnonzero(column)[-1]) + 1
        assert world.column_height(x, z) == top
