"""Skylight stored as a count per column against the 3-D top-down scan.

``worldgen_oracle.compute_skylight`` is the old per-voxel ``logical_or``
scan; the arena now keeps ``skylit[lx, lz]`` (cells lit from the top) and
derives ``Chunk.skylight`` from it.  Everything here runs the layout
against that oracle, not against itself.
"""

import numpy as np
import pytest
import worldgen_oracle as oracle

from repro.mlg.blocks import OPAQUE_LUT, Block
from repro.mlg.chunk_arena import Chunk, column_tops
from repro.mlg.constants import CHUNK_SIZE, MAX_LIGHT, WORLD_HEIGHT
from repro.mlg.lighting import LightEngine
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator

#: Opaque and see-through blocks, emitters of both kinds among them.
PALETTE = np.array(
    [Block.STONE, Block.WOOD, Block.MAGMA, Block.GLASS, Block.LEAVES,
     Block.WATER_SOURCE, Block.TORCH],
    dtype=np.uint8,
)


def _random_world(seed, n_chunks=5):
    """Chunks of random columns — mostly air, a few blocks of ``PALETTE``
    each — with the edge columns planted in every chunk: all air, opaque
    only at ``y = 0``, only at ``y = 127``, at both, see-through only.
    The blocks are written directly, so each heightmap is rebuilt after."""
    rng = np.random.default_rng(seed)
    world = World()
    for cx in range(n_chunks):
        chunk = world.ensure_chunk(cx, -cx)
        blocks = chunk.blocks
        density = rng.random((CHUNK_SIZE, CHUNK_SIZE, 1)) ** 3 * 0.2
        filled = rng.random(blocks.shape) < density
        blocks[filled] = rng.choice(PALETTE, int(filled.sum()))
        blocks[0, :5] = Block.AIR
        blocks[0, 1, 0] = blocks[0, 2, 127] = Block.STONE
        blocks[0, 3, 0] = blocks[0, 3, 127] = Block.STONE
        blocks[0, 4, 40:90] = Block.GLASS
        chunk.recompute_heightmap()
    return world, rng


def _assert_lit_like_the_oracle(world):
    for chunk in world.loaded_chunks():
        np.testing.assert_array_equal(
            chunk.skylight, oracle.compute_skylight(chunk.blocks)
        )


@pytest.mark.parametrize("seed", range(4))
def test_derived_skylight_and_light_at_equal_the_oracle(seed):
    world, rng = _random_world(seed)
    lights = LightEngine(world)
    chunks = list(world.loaded_chunks())
    lights.light_chunks(chunks)
    _assert_lit_like_the_oracle(world)
    assert chunks[0].skylight[0, 0].all()  # the all-air column
    assert chunks[0].skylight[0, 1].tolist() == [0] + [MAX_LIGHT] * 127
    assert not chunks[0].skylight[0, 2].any() and not chunks[0].skylight[0, 3].any()
    assert chunks[0].skylight[0, 4].all()
    sky = {(c.cx, c.cz): oracle.compute_skylight(c.blocks) for c in chunks}
    assert any(c.blocklight.any() for c in chunks)
    xs = rng.integers(0, CHUNK_SIZE * len(chunks), 1000)
    zs = CHUNK_SIZE * -(xs >> 4) + rng.integers(0, CHUNK_SIZE, 1000)
    ys = rng.integers(0, WORLD_HEIGHT, 1000)
    got, want = [], []
    for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
        chunk = world.get_chunk(x >> 4, z >> 4)
        got.append(lights.light_at(x, y, z))
        want.append(
            max(
                int(sky[chunk.cx, chunk.cz][x & 15, z & 15, y]),
                int(chunk.blocklight[x & 15, z & 15, y]),
            )
        )
    assert got == want
    assert 0 < sum(w == 0 for w in want) and 0 < sum(0 < w < 15 for w in want)


@pytest.mark.parametrize("seed", range(3))
def test_relight_column_after_set_block_is_a_full_relight(seed):
    world, rng = _random_world(seed, n_chunks=2)
    lights = LightEngine(world)
    lights.light_chunks(list(world.loaded_chunks()))
    for _ in range(200):
        x, z = int(rng.integers(0, 32)), int(rng.integers(0, 16))
        z -= CHUNK_SIZE * (x >> 4)
        y = int(rng.choice([0, 127, int(rng.integers(0, WORLD_HEIGHT))]))
        block = int(rng.choice([Block.AIR, Block.STONE, Block.GLASS]))
        world.set_block(x, y, z, block)
        assert lights.relight_column(x, z) == WORLD_HEIGHT
    _assert_lit_like_the_oracle(world)
    before = [c.skylit.copy() for c in world.loaded_chunks()]
    lights.light_chunks(list(world.loaded_chunks()))
    for chunk, skylit in zip(world.loaded_chunks(), before):
        np.testing.assert_array_equal(chunk.skylit, skylit)


SEE_THROUGH = (
    Block.WATER_SOURCE, Block.LEAVES, Block.GLASS, Block.KELP, Block.TORCH,
)


def _see_through_tops():
    """One chunk on stone ground to ``y = 60`` whose row ``lx = 0`` is
    topped by every see-through block, alone and stacked, over the ground
    or over nothing; row 1 is all air; row 2 has a stale-high heightmap
    (air at ``heightmap - 1``), over ground and over air; the rest is bare
    ground.  Returns the world and the chunk."""
    world = World()
    chunk = world.ensure_chunk(0, 0)
    blocks = chunk.blocks
    blocks[:, :, :60] = Block.STONE
    for lz, block in enumerate(SEE_THROUGH):
        blocks[0, lz, 60:60 + lz + 1] = block
    blocks[0, 5, 60:70] = Block.WATER_SOURCE
    blocks[0, 5, 70:72] = Block.KELP
    blocks[0, 5, 72] = Block.GLASS
    blocks[0, 6, :] = Block.LEAVES  # see-through to the world floor
    blocks[0, 7, :60] = Block.AIR
    blocks[0, 7, 100] = Block.GLASS  # floating over an empty column
    blocks[0, 8, 127] = Block.TORCH  # at the top of the world
    blocks[1] = Block.AIR
    chunk.recompute_heightmap()
    chunk.heightmap[2, :4] = (61, 90, WORLD_HEIGHT, 75)
    blocks[2, 3] = Block.AIR
    return world, chunk


def test_see_through_tops_all_air_and_stale_high_light_exactly():
    world, chunk = _see_through_tops()
    twin = Chunk(0, 0)
    twin.blocks[:] = chunk.blocks
    sky = {}
    assert LightEngine(world).light_chunks([chunk]) == [
        oracle.light_chunk(twin, sky)
    ]
    np.testing.assert_array_equal(chunk.skylight, sky[0, 0])
    np.testing.assert_array_equal(chunk.blocklight, twin.blocklight)
    ground, all_lit = WORLD_HEIGHT - 60, WORLD_HEIGHT
    assert chunk.skylit[0, :9].tolist() == [ground] * 6 + [
        all_lit, all_lit, ground,
    ]
    assert (chunk.skylit[1] == all_lit).all()
    assert chunk.skylit[2, :4].tolist() == [ground] * 3 + [all_lit]


def test_relight_column_reads_see_through_and_stale_high_tops():
    world, chunk = _see_through_tops()
    lights = LightEngine(world)
    for lx in range(3):
        for lz in range(CHUNK_SIZE):
            chunk.skylit[lx, lz] = 7
            assert lights.relight_column(lx, lz) == WORLD_HEIGHT
    np.testing.assert_array_equal(
        chunk.skylight[:3], oracle.compute_skylight(chunk.blocks)[:3]
    )


def test_a_never_lit_slot_reads_dark_and_a_free_chunk_too():
    world = World(generator=TerrainGenerator(seed=5))
    chunk = world.ensure_chunk(2, 3)
    lights = LightEngine(world)
    assert not chunk.skylight.any() and not chunk.skylit.any()
    for y in (0, 60, 100, WORLD_HEIGHT - 1):
        assert lights.light_at(40, y, 50) == int(chunk.blocklight[8, 2, y]) == 0
    assert lights.light_at(40, WORLD_HEIGHT, 50) == MAX_LIGHT  # out of bounds
    assert not Chunk(0, 0).skylight.any()


def test_skylight_is_derived_and_refuses_writes():
    world = World(generator=TerrainGenerator(seed=5))
    chunk = world.ensure_chunk(0, 0)
    LightEngine(world).light_chunks([chunk])
    skylight = chunk.skylight
    assert skylight.shape == (CHUNK_SIZE, CHUNK_SIZE, WORLD_HEIGHT)
    assert skylight.dtype == np.uint8 and not skylight.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        chunk.skylight[:] = 7
    with pytest.raises(ValueError, match="read-only"):
        skylight[3, 4, 5] = 0
    assert set(np.unique(skylight).tolist()) == {0, MAX_LIGHT}


def _tops_scalar(filled):
    flat = filled.reshape(-1, filled.shape[-1])
    tops = [int(np.flatnonzero(col)[-1]) + 1 if col.any() else 0 for col in flat]
    return np.array(tops, np.int16).reshape(filled.shape[:-1])


def test_column_tops_reads_words_like_a_scalar_scan():
    rng = np.random.default_rng(9)
    # Every single cell alone, every pair with y = 0, and random masks of
    # every density, as one column, a gather of columns, a strip of chunks.
    alone = np.eye(WORLD_HEIGHT, dtype=bool)
    with_floor = alone.copy()
    with_floor[:, 0] = True
    for filled in (
        alone, with_floor, np.zeros((3, WORLD_HEIGHT), bool),
        np.ones(WORLD_HEIGHT, bool),
        rng.random(WORLD_HEIGHT) < 0.1,
        rng.random((7, WORLD_HEIGHT)) < 0.02,
        rng.random((3, 16, 16, WORLD_HEIGHT)) < rng.random((3, 16, 16, 1)) ** 4,
        OPAQUE_LUT[rng.choice(PALETTE, (2, 16, 16, WORLD_HEIGHT))],
    ):
        tops = column_tops(filled)
        assert tops.dtype == np.int16
        np.testing.assert_array_equal(tops, _tops_scalar(filled))
