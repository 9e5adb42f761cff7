"""Tests for the seeded terrain generator (Control world substrate)."""

import numpy as np
import pytest
import worldgen_oracle as oracle

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import CHUNK_SIZE, SEA_LEVEL, WORLD_HEIGHT
from repro.mlg.world import Chunk, World
from repro.mlg.worldgen import PAPER_SEED, TerrainGenerator, value_noise_2d


class TestValueNoise:
    def test_range(self):
        xs, zs = np.meshgrid(np.arange(100), np.arange(100))
        noise = value_noise_2d(xs, zs, seed=1, scale=16.0)
        assert float(noise.min()) >= 0.0
        assert float(noise.max()) < 1.0

    def test_deterministic(self):
        xs = np.arange(50)
        a = value_noise_2d(xs, xs, seed=42, scale=8.0)
        b = value_noise_2d(xs, xs, seed=42, scale=8.0)
        assert np.array_equal(a, b)

    def test_seed_changes_field(self):
        xs = np.arange(50)
        a = value_noise_2d(xs, xs, seed=1, scale=8.0)
        b = value_noise_2d(xs, xs, seed=2, scale=8.0)
        assert not np.array_equal(a, b)

    def test_smoothness(self):
        """Adjacent samples differ much less than the lattice spacing."""
        xs = np.arange(200)
        zs = np.zeros(200)
        noise = value_noise_2d(xs, zs, seed=7, scale=32.0)
        assert float(np.abs(np.diff(noise)).max()) < 0.2

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            value_noise_2d(np.arange(4), np.arange(4), seed=1, scale=0.0)

    @pytest.mark.parametrize("scale", [8.0, 16.0, 24.0, 96.0, 192.0])
    def test_bit_identical_to_the_per_column_oracle(self, scale):
        """The lattice grid gives what hashing four corners per sample
        gave, to the bit, in value, shape and type."""
        rng = np.random.default_rng(int(scale))
        corner = rng.integers(-40, 40, (6, 2, 1, 1)) * CHUNK_SIZE
        local = np.arange(CHUNK_SIZE)
        cases = [
            # A strip's lattice: [n, 16, 1] x [n, 1, 16].
            (corner[:, 0] + local[:, None], corner[:, 1] + local),
            # 1-D, negative and fractional; a diagonal; one axis fixed.
            (rng.uniform(-500, 500, 300), rng.uniform(-500, 500, 300)),
            (np.arange(-70, 50), np.arange(-70, 50)),
            (np.arange(-3.5, 3.5, 0.25), np.full(28, -0.75)),
            # 0-d scalars, alone and against an array.
            (np.float64(-17.3), np.float64(4.9)),
            (-1, 0),
            (np.int64(5), np.arange(-20, 20)),
            # Empty, alone and broadcast against a row.
            (np.array([]), np.array([])),
            (np.zeros((0, 1)), np.arange(16)[None, :]),
            (np.array([]), 3.0),
        ]
        for seed in (PAPER_SEED, 7):
            for xs, zs in cases:
                got = value_noise_2d(xs, zs, seed, scale)
                want = oracle.value_noise_2d(xs, zs, seed, scale)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).dtype == np.float64
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestTerrainGenerator:
    def _generate(self, cx=0, cz=0, seed=PAPER_SEED):
        generator = TerrainGenerator(seed=seed)
        chunk = Chunk(cx, cz)
        generator(chunk)
        return chunk

    def test_determinism(self):
        a = self._generate()
        b = self._generate()
        assert np.array_equal(a.blocks, b.blocks)

    def test_bedrock_floor(self):
        chunk = self._generate()
        assert np.all(chunk.blocks[:, :, 0] == Block.BEDROCK)

    def test_layering_stone_dirt_grass(self):
        chunk = self._generate()
        # Find a column above sea level and check the soil profile.
        found = False
        for lx in range(CHUNK_SIZE):
            for lz in range(CHUNK_SIZE):
                h = int(chunk.heightmap[lx, lz])
                top = int(chunk.blocks[lx, lz, h - 1])
                if top == Block.GRASS:
                    assert chunk.blocks[lx, lz, h - 2] == Block.DIRT
                    assert chunk.blocks[lx, lz, h - 5] == Block.STONE
                    found = True
        assert found, "no grass column found in chunk"

    def test_water_below_sea_level(self):
        # Search nearby chunks for an underwater column.
        generator = TerrainGenerator(seed=PAPER_SEED)
        world = World(generator=generator)
        found_water = False
        for cx in range(-6, 7, 2):
            for cz in range(-6, 7, 2):
                chunk = world.ensure_chunk(cx, cz)
                if (chunk.blocks == Block.WATER_SOURCE).any():
                    found_water = True
        assert found_water, "no water found in a 13x13-chunk neighborhood"

    def test_heights_in_bounds(self):
        generator = TerrainGenerator(seed=1)
        xs, zs = np.meshgrid(np.arange(0, 512, 8), np.arange(0, 512, 8))
        heights = generator.height_at(xs, zs)
        assert int(heights.min()) >= 8
        assert int(heights.max()) <= WORLD_HEIGHT - 20

    def test_different_chunks_differ(self):
        a = self._generate(0, 0)
        b = self._generate(5, 9)
        assert not np.array_equal(a.blocks, b.blocks)

    def test_heightmap_synced_after_generation(self):
        chunk = self._generate()
        expected = column_tops(chunk.blocks != Block.AIR)
        assert np.array_equal(chunk.heightmap, expected)

    def test_trees_appear_somewhere(self):
        generator = TerrainGenerator(seed=PAPER_SEED)
        world = World(generator=generator)
        wood = 0
        for cx in range(-8, 9, 2):
            for cz in range(-8, 9, 2):
                chunk = world.ensure_chunk(cx, cz)
                wood += int((chunk.blocks == Block.WOOD).sum())
        assert wood > 0, "no trees generated in an 17x17-chunk sample"
