"""Seeded terrain generation — the Control world substrate (§3.3.1).

The paper's Control workload is "an unmodified world generated by Minecraft
1.16.4 using the seed -392114485".  We reproduce the *class* of terrain with
a deterministic value-noise heightmap (two octaves, bilinear interpolation
over hashed lattice points), layered soil, sea-level water, beaches, sparse
trees, and underwater kelp — enough structure for every downstream engine
(lighting, growth, spawning, pathfinding) to do representative work.
"""

from __future__ import annotations

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.constants import CHUNK_SIZE, SEA_LEVEL, WORLD_HEIGHT
from repro.mlg.world import Chunk

__all__ = ["TerrainGenerator", "PAPER_SEED", "value_noise_2d"]

#: The Minecraft seed the paper's Control world uses.
PAPER_SEED = -392114485


def _hash_lattice(ix: np.ndarray, iz: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic pseudo-random values in [0, 1) at integer lattice points.

    SplitMix64-style integer mixing; vectorized over numpy int64 arrays.
    Overflow wraps (two's complement), which is exactly what we want.
    """
    with np.errstate(over="ignore"):
        h = (
            ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ iz.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
            ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        )
        h ^= h >> np.uint64(30)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


def value_noise_2d(
    xs: np.ndarray, zs: np.ndarray, seed: int, scale: float
) -> np.ndarray:
    """Bilinear value noise in [0, 1) sampled at world coordinates.

    ``xs``/``zs`` are broadcastable coordinate arrays; ``scale`` is the
    lattice spacing in blocks (larger = smoother terrain).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    fx = np.asarray(xs, dtype=np.float64) / scale
    fz = np.asarray(zs, dtype=np.float64) / scale
    x0 = np.floor(fx).astype(np.int64)
    z0 = np.floor(fz).astype(np.int64)
    tx = _smoothstep(fx - x0)
    tz = _smoothstep(fz - z0)
    v00 = _hash_lattice(x0, z0, seed)
    v10 = _hash_lattice(x0 + 1, z0, seed)
    v01 = _hash_lattice(x0, z0 + 1, seed)
    v11 = _hash_lattice(x0 + 1, z0 + 1, seed)
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * tz


class TerrainGenerator:
    """Generates chunk terrain from a world seed.

    Instances are callables compatible with :class:`repro.mlg.world.World`'s
    ``generator`` argument.
    """

    def __init__(self, seed: int = PAPER_SEED) -> None:
        self.seed = seed

    def height_at(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Terrain height (top of the ground column) at world coordinates."""
        base = value_noise_2d(xs, zs, self.seed, scale=96.0)
        detail = value_noise_2d(xs, zs, self.seed ^ 0x51AB3, scale=24.0)
        ridges = value_noise_2d(xs, zs, self.seed ^ 0xFACE5, scale=192.0)
        height = 46.0 + 24.0 * base + 7.0 * detail + 16.0 * ridges
        return np.clip(height, 8.0, WORLD_HEIGHT - 20.0).astype(np.int32)

    def __call__(self, chunk: Chunk) -> None:
        """Populate ``chunk`` with layered terrain, water, trees, and kelp."""
        x0 = chunk.cx * CHUNK_SIZE
        z0 = chunk.cz * CHUNK_SIZE
        lx, lz = np.meshgrid(
            np.arange(CHUNK_SIZE), np.arange(CHUNK_SIZE), indexing="ij"
        )
        heights = self.height_at(x0 + lx, z0 + lz)

        ys = np.arange(WORLD_HEIGHT)[None, None, :]
        h3 = heights[:, :, None]
        blocks = chunk.blocks
        blocks[:] = Block.AIR
        blocks[ys < h3 - 4] = Block.STONE
        blocks[(ys >= h3 - 4) & (ys < h3 - 1)] = Block.DIRT
        blocks[ys == h3 - 1] = Block.GRASS
        blocks[:, :, 0] = Block.BEDROCK
        # Water fills air below sea level; shoreline columns become sand.
        underwater = (ys >= h3) & (ys < SEA_LEVEL)
        blocks[underwater & (blocks == Block.AIR)] = Block.WATER_SOURCE
        beach = (heights >= SEA_LEVEL - 2) & (heights <= SEA_LEVEL + 1)
        top_idx = np.clip(heights - 1, 0, WORLD_HEIGHT - 1)
        bx, bz = np.nonzero(beach)
        blocks[bx, bz, top_idx[bx, bz]] = Block.SAND

        self._plant_trees(chunk, heights)
        self._plant_kelp(chunk, heights)
        chunk.recompute_heightmap()

    def _feature_mask(
        self, chunk: Chunk, salt: int, probability: float
    ) -> np.ndarray:
        """Deterministic per-column Bernoulli mask for feature placement."""
        x0 = chunk.cx * CHUNK_SIZE
        z0 = chunk.cz * CHUNK_SIZE
        lx, lz = np.meshgrid(
            np.arange(CHUNK_SIZE), np.arange(CHUNK_SIZE), indexing="ij"
        )
        noise = _hash_lattice(
            (x0 + lx).astype(np.int64),
            (z0 + lz).astype(np.int64),
            self.seed ^ salt,
        )
        return noise < probability

    def _plant_trees(self, chunk: Chunk, heights: np.ndarray) -> None:
        """Sparse trees on grass above sea level (trunk + leaf blob)."""
        mask = self._feature_mask(chunk, 0x7E3E, 0.004)
        blocks = chunk.blocks
        for lx, lz in zip(*np.nonzero(mask)):
            ground = int(heights[lx, lz])
            if ground <= SEA_LEVEL or ground + 7 >= WORLD_HEIGHT:
                continue
            if blocks[lx, lz, ground - 1] != Block.GRASS:
                continue
            trunk_top = ground + 5
            blocks[lx, lz, ground:trunk_top] = Block.WOOD
            for dx in range(-2, 3):
                for dz in range(-2, 3):
                    for dy in range(3, 7):
                        tx, tz, ty = lx + dx, lz + dz, ground + dy
                        if not (
                            0 <= tx < CHUNK_SIZE
                            and 0 <= tz < CHUNK_SIZE
                            and ty < WORLD_HEIGHT
                        ):
                            continue
                        if abs(dx) + abs(dz) + abs(dy - 4) <= 4:
                            if blocks[tx, tz, ty] == Block.AIR:
                                blocks[tx, tz, ty] = Block.LEAVES

    def _plant_kelp(self, chunk: Chunk, heights: np.ndarray) -> None:
        """Kelp stalks in deeper water columns."""
        mask = self._feature_mask(chunk, 0x6B21, 0.01)
        for lx, lz in zip(*np.nonzero(mask)):
            ground = int(heights[lx, lz])
            depth = SEA_LEVEL - ground
            if depth < 4:
                continue
            stalk = min(depth - 1, 6)
            chunk.blocks[lx, lz, ground : ground + stalk] = Block.KELP
