"""Per-chunk terrain generation and initial lighting as they stood before
the batch world build, verbatim: the oracle of ``test_world_build.py``.

``generate_chunk`` is the old ``TerrainGenerator.__call__`` body (five
boolean-mask fills, then a Python loop per tree and per kelp stalk);
``light_chunk`` is the old ``LightEngine.light_chunk`` (``logical_or``
scan for skylight, block-light BFS seeded in every chunk).  A chunk no
longer stores sky light per voxel, so the scan's 3-D result goes into a
dict of the caller's, ``sky[cx, cz]``, and tests compare the derived
``Chunk.skylight`` with it (a chunk never lit has no entry: dark).  Wrapped
as ``OracleGenerator``, a plain per-chunk callable, and driven one
coordinate per ``ensure_chunks`` call, they are the old world build.
``value_noise_2d`` is the old per-column noise (four lattice hashes per
sample) and ``height_at`` the old height formula over it; only the
lattice hash and ``_smoothstep`` are shared with the live generator —
they were not rewritten.  Nothing here is imported by ``src/``.
"""

from collections import deque

import numpy as np

from repro.mlg.blocks import LIGHT_EMISSION_LUT, OPAQUE_LUT, Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import CHUNK_SIZE, MAX_LIGHT, SEA_LEVEL, WORLD_HEIGHT
from repro.mlg.worldgen import _hash_lattice, _smoothstep

_NEIGHBORS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
)


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


def height_at(seed, xs, zs):
    """Terrain height (top of the ground column) at world coordinates."""
    base = value_noise_2d(xs, zs, seed, scale=96.0)
    detail = value_noise_2d(xs, zs, seed ^ 0x51AB3, scale=24.0)
    ridges = value_noise_2d(xs, zs, seed ^ 0xFACE5, scale=192.0)
    height = 46.0 + 24.0 * base + 7.0 * detail + 16.0 * ridges
    return np.clip(height, 8.0, WORLD_HEIGHT - 20.0).astype(np.int32)


def generate_chunk(seed, chunk):
    """Populate ``chunk`` with layered terrain, water, trees, and kelp."""
    x0 = chunk.cx * CHUNK_SIZE
    z0 = chunk.cz * CHUNK_SIZE
    lx, lz = np.meshgrid(
        np.arange(CHUNK_SIZE), np.arange(CHUNK_SIZE), indexing="ij"
    )
    heights = height_at(seed, x0 + lx, z0 + lz)

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

    _plant_trees(seed, chunk, heights)
    _plant_kelp(seed, chunk, heights)
    chunk.heightmap[:] = column_tops(chunk.blocks != Block.AIR)


def _feature_mask(seed, chunk, salt, probability):
    """Deterministic per-column Bernoulli mask for feature placement."""
    x0 = chunk.cx * CHUNK_SIZE
    z0 = chunk.cz * CHUNK_SIZE
    lx, lz = np.meshgrid(
        np.arange(CHUNK_SIZE), np.arange(CHUNK_SIZE), indexing="ij"
    )
    noise = _hash_lattice(
        (x0 + lx).astype(np.int64), (z0 + lz).astype(np.int64), seed ^ salt
    )
    return noise < probability


def _plant_trees(seed, chunk, heights):
    """Sparse trees on grass above sea level (trunk + leaf blob)."""
    mask = _feature_mask(seed, chunk, 0x7E3E, 0.004)
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


def _plant_kelp(seed, chunk, heights):
    """Kelp stalks in deeper water columns."""
    mask = _feature_mask(seed, chunk, 0x6B21, 0.01)
    for lx, lz in zip(*np.nonzero(mask)):
        ground = int(heights[lx, lz])
        depth = SEA_LEVEL - ground
        if depth < 4:
            continue
        stalk = min(depth - 1, 6)
        chunk.blocks[lx, lz, ground : ground + stalk] = Block.KELP


def light_chunk(chunk, sky):
    """(Re)light a whole chunk; returns the number of nodes computed."""
    sky[chunk.cx, chunk.cz] = compute_skylight(chunk.blocks)
    return CHUNK_SIZE * CHUNK_SIZE + _seed_blocklight(chunk)


def compute_skylight(blocks):
    """Top-down skylight: full light until the first opaque block."""
    opaque = OPAQUE_LUT[blocks]
    # cumulative "any opaque above" per column, scanning from the top.
    blocked = np.logical_or.accumulate(opaque[..., ::-1], axis=-1)
    return (~blocked * np.uint8(MAX_LIGHT))[..., ::-1]


def _seed_blocklight(chunk):
    """BFS block light from all emitting blocks inside the chunk."""
    blocks, blocklight = chunk.blocks, chunk.blocklight
    blocklight[:] = 0
    emission_map = LIGHT_EMISSION_LUT[blocks]
    xs, zs, ys = np.nonzero(emission_map)
    emitters = [
        (int(x), int(z), int(y), int(emission_map[x, z, y]))
        for x, z, y in zip(xs, zs, ys)
    ]
    nodes = 0
    queue = deque()
    for lx, lz, y, emission in emitters:
        blocklight[lx, lz, y] = emission
        queue.append((lx, lz, y, emission))
    while queue:
        lx, lz, y, level = queue.popleft()
        nodes += 1
        next_level = level - 1
        if next_level <= 0:
            continue
        for dx, dz, dy in _NEIGHBORS:
            nx, nz, ny = lx + dx, lz + dz, y + dy
            if not (
                0 <= nx < CHUNK_SIZE
                and 0 <= nz < CHUNK_SIZE
                and 0 <= ny < WORLD_HEIGHT
            ):
                continue
            if OPAQUE_LUT[blocks[nx, nz, ny]]:
                continue
            if blocklight[nx, nz, ny] < next_level:
                blocklight[nx, nz, ny] = next_level
                queue.append((nx, nz, ny, next_level))
    return nodes


class OracleGenerator:
    """A plain ``generator(chunk)`` callable: ``World`` falls back to one
    call per created chunk for it, which is the old loop."""

    def __init__(self, seed):
        self.seed = seed

    def __call__(self, chunk):
        generate_chunk(self.seed, chunk)
