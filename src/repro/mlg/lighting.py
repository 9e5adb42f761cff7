"""Lighting engine — dynamic light recomputation on terrain change (§2.2.2).

Static games bake lighting; MLGs must recompute it at runtime because the
terrain is modifiable ("once the bridge has collapsed, the bridge no longer
casts shadow").  We implement column skylight (top-down occlusion) and BFS
block-light propagation from emitters, and count every relit node so the
cost model can charge for it.

Skylight is stored as what decides it: ``skylit[lx, lz]``, the number of
cells above a column's highest opaque block, so lighting a chunk writes 256
counts and a query is one compare.  Lighting requires the heightmap to be
no lower than the highest non-air block (every writer keeps it exact):
where the block under it is opaque, it is the cut-off, and only columns
with a see-through top (water, leaves, glass, kelp, torch) are scanned.
Block light is a voxel slab that almost no chunk uses; the arena's
per-slot ``glows`` flag, kept here, says which do, and only those slabs
are ever read or written.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mlg.blocks import LIGHT_EMISSION_LUT, OPAQUE_LUT
from repro.mlg.chunk_arena import Chunk, column_tops, strips
from repro.mlg.constants import CHUNK_SIZE, MAX_LIGHT, WORLD_HEIGHT
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["LightEngine"]


class LightEngine:
    """Maintains skylight and block light for a :class:`World`."""

    #: Radius of the local relight region around a block change.
    RELIGHT_RADIUS = 8

    def __init__(self, world: World) -> None:
        self.world = world

    # -- initial lighting ----------------------------------------------------

    def light_chunks(
        self, chunks: list[Chunk], report: WorkReport | None = None
    ) -> list[int]:
        """(Re)light whole chunks (on generation/load); returns the nodes
        computed for each.  A column's skylight is decided by its highest
        opaque block, so a strip's is one ``[n, 16, 16]`` store, taken
        from the heightmap (see the module docstring) where the top block
        is opaque and scanned for where it is see-through; block light
        BFS-propagates from emitters, in the chunks that hold one."""
        nodes = []
        for strip in strips(chunks):
            blocks = strip.read("blocks")
            cut = _sky_cutoffs(blocks, strip.read("heightmap"))
            strip.write("skylit", WORLD_HEIGHT - cut)
            raw = blocks.tobytes()
            # Block light is seeded where there is light to spread, or some
            # left over from an emitter since removed (``glows``); everywhere
            # else it is, and stays, zero.
            size = blocks[0].size
            for chunk, glows, start in zip(
                strip.chunks,
                strip.read("glows").tolist(),
                range(0, len(raw), size),
            ):
                # One node per column, not per voxel, so initial lighting
                # stays proportional to the real engine's column-based pass.
                lit = CHUNK_SIZE * CHUNK_SIZE
                if glows or any(
                    raw.find(e, start, start + size) >= 0 for e in _EMITTERS
                ):
                    lit += self._seed_blocklight(chunk)
                nodes.append(lit)
        if report is not None:
            report.add(Op.LIGHTING, sum(nodes))
        return nodes

    def _seed_blocklight(self, chunk: Chunk) -> int:
        """BFS block light from all emitting blocks inside the chunk."""
        blocks, blocklight = chunk.blocks, chunk.blocklight
        blocklight[:] = 0
        emitters = np.nonzero(LIGHT_EMISSION_LUT[blocks])
        blocklight[emitters] = levels = LIGHT_EMISSION_LUT[blocks[emitters]]
        chunk._page.glows[chunk._slot] = levels.size > 0
        queue = deque(zip(*(a.tolist() for a in (*emitters, levels))))
        nodes = 0
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
                ) or OPAQUE_LUT[blocks[nx, nz, ny]]:
                    continue
                if blocklight[nx, nz, ny] < next_level:
                    blocklight[nx, nz, ny] = next_level
                    queue.append((nx, nz, ny, next_level))
        return nodes

    # -- incremental relighting ----------------------------------------------

    def relight_column(
        self, x: int, z: int, report: WorkReport | None = None
    ) -> int:
        """Recompute skylight for one column after a block change."""
        chunk = self.world.get_chunk(x >> 4, z >> 4)
        if chunk is None:
            return 0
        lx, lz = x & 15, z & 15
        cut = _sky_cutoffs(chunk.blocks[lx, lz], chunk.heightmap[lx, lz])
        chunk.skylit[lx, lz] = WORLD_HEIGHT - cut
        if report is not None:
            report.add(Op.LIGHTING, WORLD_HEIGHT)
        return WORLD_HEIGHT

    def relight_around(
        self, x: int, y: int, z: int, report: WorkReport | None = None
    ) -> int:
        """Local relight after a block change at ``(x, y, z)``.

        Recomputes the column's skylight and re-propagates block light in a
        bounded neighborhood; the node count (the work) scales with how much
        light actually changes, which is what makes collapsing structures
        expensive in MLGs.
        """
        nodes = self.relight_column(x, z, report)
        radius = self.RELIGHT_RADIUS
        # Re-seed block light for the touched chunk region: cheap
        # approximation that still scales with emitter density.
        chunk = self.world.get_chunk(x >> 4, z >> 4)
        if chunk is not None:
            region = chunk.blocks[
                max(0, (x & 15) - radius) : (x & 15) + radius + 1,
                max(0, (z & 15) - radius) : (z & 15) + radius + 1,
                max(0, y - radius) : min(WORLD_HEIGHT, y + radius + 1),
            ]
            emitting = int((LIGHT_EMISSION_LUT[region] > 0).sum())
            local_nodes = region.size // 16 + emitting * 32
            nodes += local_nodes
            if report is not None:
                report.add(Op.LIGHTING, local_nodes)
        return nodes

    # -- queries --------------------------------------------------------------

    def light_at(self, x: int, y: int, z: int) -> int:
        """Combined light level (max of sky and block light)."""
        if not self.world.in_bounds_y(y):
            return MAX_LIGHT
        chunk = self.world.get_chunk(x >> 4, z >> 4)
        if chunk is None:
            return MAX_LIGHT
        page, slot, lx, lz = chunk._page, chunk._slot, x & 15, z & 15
        if WORLD_HEIGHT - y <= page.skylit[slot, lx, lz]:
            return MAX_LIGHT
        return int(page.blocklight[slot, lx, lz, y]) if page.glows[slot] else 0


def _sky_cutoffs(blocks: np.ndarray, heightmap: np.ndarray) -> np.ndarray:
    """Highest opaque block + 1 of each column of ``blocks[..., y]``: the
    ``heightmap`` where it is 0 or the block under it is opaque, else a
    scan of the column (a see-through top, or air under a stale-high
    heightmap)."""
    heightmap = np.asarray(heightmap)
    # Height 0 reads y = -1, wrapped to the top, and is not used.
    top = np.take_along_axis(blocks, heightmap[..., None] - 1, axis=-1)
    cut = heightmap.astype(np.int16)
    scan = ~OPAQUE_LUT[top[..., 0]] & (heightmap > 0)
    if scan.any():
        # bytes.translate: the uint8 table lookup that does not widen
        # block ids into 8x the bytes of indices first.
        columns = blocks[scan]
        opaque = np.frombuffer(
            columns.tobytes().translate(_OPAQUE_BYTES), np.bool_
        ).reshape(columns.shape)
        cut[scan] = column_tops(opaque)
    return cut


_OPAQUE_BYTES = OPAQUE_LUT.tobytes().ljust(256, b"\0")
_EMITTERS = np.flatnonzero(LIGHT_EMISSION_LUT).tolist()
_NEIGHBORS = (
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
)
