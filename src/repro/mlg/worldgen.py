"""Seeded terrain generation — the Control world substrate (§3.3.1).

The paper's Control workload is "an unmodified world generated by Minecraft
1.16.4 using the seed -392114485".  We reproduce the *class* of terrain with
a deterministic value-noise heightmap (two octaves, bilinear interpolation
over hashed lattice points), layered soil, sea-level water, beaches, sparse
trees, and underwater kelp — enough structure for every downstream engine
(lighting, growth, spawning, pathfinding) to do representative work.

Chunks are generated a strip at a time (one chunk is a strip of one).
Stone, dirt, grass, bedrock, water and beach sand depend on nothing but a
column's terrain height, so a strip's voxels and heightmap are column
``height`` of two tables built at import, gathered for all ``n x 16 x 16``
columns at once and viewed ``y``-major, as the slab stores them.  Trees
and kelp reach into neighbouring columns and stop at the chunk edge, so
they are stamped onto the gathered strip after.  Each chunk's slot is
then written only up to its highest block, in whole sections: the sky
over the terrain is never written.
"""

from __future__ import annotations

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import Chunk, column_tops, strips
from repro.mlg.constants import CHUNK_SIZE, SEA_LEVEL, WORLD_HEIGHT

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
    lattice spacing in blocks (larger = smoother terrain).  Each lattice
    point of the samples' bounding box is hashed once, so the cost grows
    with the box's area: meant for compact blocks of columns.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale!r}")
    fx = np.asarray(xs, dtype=np.float64) / scale
    fz = np.asarray(zs, dtype=np.float64) / scale
    x0 = np.floor(fx).astype(np.int64)
    z0 = np.floor(fz).astype(np.int64)
    tx = _smoothstep(fx - x0)
    tz = _smoothstep(fz - z0)
    if x0.size == 0 or z0.size == 0:
        return np.zeros(np.broadcast_shapes(x0.shape, z0.shape))
    lattice_z = np.arange(z0.min(), z0.max() + 2)
    grid = _hash_lattice(
        np.arange(x0.min(), x0.max() + 2)[:, None], lattice_z, seed
    ).ravel()
    # Each sample's cell as a flat offset into the row-major grid.
    cell = (x0 - x0.min()) * lattice_z.size + (z0 - z0.min())
    v00, v10 = grid[cell], grid[cell + lattice_z.size]
    v01, v11 = grid[cell + 1], grid[cell + lattice_z.size + 1]
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * tz


def _terrain_columns() -> tuple[np.ndarray, np.ndarray]:
    """``(blocks[h, y], tops[h])`` for terrain heights ``h`` in ``[0,
    WORLD_HEIGHT]``: the voxel column under a surface at ``h`` (stone, dirt,
    grass, bedrock floor, water up to sea level, shoreline sand) and its
    heightmap entry."""
    h = np.arange(WORLD_HEIGHT + 1)[:, None]
    ys = np.arange(WORLD_HEIGHT)[None, :]
    blocks = np.full((WORLD_HEIGHT + 1, WORLD_HEIGHT), Block.AIR, np.uint8)
    blocks[ys < h - 4] = Block.STONE
    blocks[(ys >= h - 4) & (ys < h - 1)] = Block.DIRT
    blocks[ys == h - 1] = Block.GRASS
    blocks[:, 0] = Block.BEDROCK
    # Water fills air below sea level; shoreline columns become sand.
    water = (ys >= h) & (ys < SEA_LEVEL) & (blocks == Block.AIR)
    blocks[water] = Block.WATER_SOURCE
    beach = np.arange(SEA_LEVEL - 2, SEA_LEVEL + 2)
    blocks[beach, beach - 1] = Block.SAND
    return blocks, column_tops(blocks != Block.AIR)


_COLUMN_BLOCKS, _COLUMN_TOPS = _terrain_columns()


#: Leaf blob of a tree: 60 ``(dx, dz, dy)`` from the trunk's ground cell.
_LEAF_DX, _LEAF_DZ, _LEAF_DY = np.array([
    (dx, dz, dy) for dx in range(-2, 3) for dz in range(-2, 3)
    for dy in range(3, 7) if abs(dx) + abs(dz) + abs(dy - 4) <= 4
]).T
_TRUNK, _KELP = np.arange(5), np.arange(6)  # tallest trunk / kelp stalk


def _stamp(blocks, tops, cells, keep, block: int) -> None:
    """Write ``block`` into ``blocks[chunk, y, lx, lz]`` at the ``(chunk,
    lx, lz, y)`` ``cells`` selected by ``keep`` and raise the tops of the
    columns it now stands above."""
    keep, *cells = np.broadcast_arrays(keep, *cells)
    c, lx, lz, ys = (a[keep] for a in cells)
    blocks[c, ys, lx, lz] = block
    np.maximum.at(tops, (c, lx, lz), (ys + 1).astype(tops.dtype))


def _plant_trees(blocks, tops, heights, mask) -> None:
    """Sparse trees on grass above sea level (trunk + leaf blob).  Leaves
    stop at the chunk edge and go only into air, trunks overwrite, and no
    tree reads a cell another writes otherwise: all leaves, then all trunks,
    give what planting tree by tree in chunk-then-column order gives."""
    mask = mask & (heights > SEA_LEVEL) & (heights + 7 < WORLD_HEIGHT)
    c, lx, lz = (a[:, None] for a in np.nonzero(mask))
    ground = heights[c, lx, lz]
    grass = blocks[c, ground - 1, lx, lz] == Block.GRASS
    tx, tz, ty = lx + _LEAF_DX, lz + _LEAF_DZ, ground + _LEAF_DY
    inside = (tx >= 0) & (tx < CHUNK_SIZE) & (tz >= 0) & (tz < CHUNK_SIZE)
    air = blocks[c, ty, tx % CHUNK_SIZE, tz % CHUNK_SIZE] == Block.AIR
    _stamp(blocks, tops, (c, tx, tz, ty), grass & inside & air, Block.LEAVES)
    _stamp(blocks, tops, (c, lx, lz, ground + _TRUNK), grass, Block.WOOD)


def _plant_kelp(blocks, tops, heights, mask) -> None:
    """Kelp stalks in deeper water columns."""
    depth = SEA_LEVEL - heights
    c, lx, lz = (a[:, None] for a in np.nonzero(mask & (depth >= 4)))
    stalk = np.minimum(depth[c, lx, lz] - 1, _KELP.size)
    cells = (c, lx, lz, heights[c, lx, lz] + _KELP)
    _stamp(blocks, tops, cells, _KELP < stalk, Block.KELP)


class TerrainGenerator:
    """Generates chunk terrain from a world seed: :meth:`generate` for all
    the chunks one ``World.ensure_chunks`` call created, or the instance
    called on one chunk (a batch of one)."""

    def __init__(self, seed: int = PAPER_SEED) -> None:
        self.seed = seed

    @property
    def key(self) -> str:
        """Identity of the terrain this generator produces (class and
        seed): generators with equal keys fill a chunk with equal bytes."""
        return f"{type(self).__name__.lower()}-seed{self.seed}"

    def height_at(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Terrain height (top of the ground column) at world coordinates."""
        base = value_noise_2d(xs, zs, self.seed, scale=96.0)
        detail = value_noise_2d(xs, zs, self.seed ^ 0x51AB3, scale=24.0)
        ridges = value_noise_2d(xs, zs, self.seed ^ 0xFACE5, scale=192.0)
        height = 46.0 + 24.0 * base + 7.0 * detail + 16.0 * ridges
        return np.clip(height, 8.0, WORLD_HEIGHT - 20.0).astype(np.int32)

    def __call__(self, chunk: Chunk) -> None:
        self.generate([chunk])

    def generate(self, chunks: list[Chunk]) -> None:
        """Populate ``chunks`` with layered terrain, water, trees, and
        kelp, and their heightmaps."""
        for strip in strips(chunks):
            # One evaluation per noise octave and feature hash per strip.
            xs, zs = strip.lattice()
            heights = self.height_at(xs, zs)
            # [n, y, lx, lz], a view of the [n, lx, lz, y] gather of whole
            # columns (row copies); the slab write transposes it.
            blocks = _COLUMN_BLOCKS[heights].transpose(0, 3, 1, 2)
            tops = _COLUMN_TOPS[heights]
            # Deterministic per-column Bernoulli masks place the features.
            trees = _hash_lattice(xs, zs, self.seed ^ 0x7E3E) < 0.004
            kelp = _hash_lattice(xs, zs, self.seed ^ 0x6B21) < 0.01
            _plant_trees(blocks, tops, heights, trees)
            _plant_kelp(blocks, tops, heights, kelp)
            strip.write("blocks", blocks, tops.max(axis=(1, 2)))
            strip.write("heightmap", tops)
