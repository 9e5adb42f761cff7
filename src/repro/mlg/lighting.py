"""Lighting engine — dynamic light recomputation on terrain change (§2.2.2).

Static games bake lighting; MLGs must recompute it at runtime because the
terrain is modifiable ("once the bridge has collapsed, the bridge no longer
casts shadow").  We implement column skylight (top-down occlusion) and BFS
block-light propagation from emitters, and count every relit node so the
cost model can charge for it.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.mlg.blocks import LIGHT_EMISSION_LUT, OPAQUE_LUT
from repro.mlg.constants import CHUNK_SIZE, MAX_LIGHT, WORLD_HEIGHT
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import Chunk, World

__all__ = ["LightEngine"]


class LightEngine:
    """Maintains skylight and block light for a :class:`World`."""

    #: Radius of the local relight region around a block change.
    RELIGHT_RADIUS = 8

    def __init__(self, world: World) -> None:
        self.world = world

    # -- initial lighting ----------------------------------------------------

    def light_chunk(self, chunk: Chunk, report: WorkReport | None = None) -> int:
        """(Re)light a whole chunk; returns the number of nodes computed.

        Called when a chunk is generated/loaded.  Skylight is a vectorized
        top-down scan; block light BFS-propagates from in-chunk emitters.
        """
        nodes = self._compute_skylight(chunk)
        nodes += self._seed_blocklight(chunk)
        if report is not None:
            report.add(Op.LIGHTING, nodes)
        return nodes

    def _compute_skylight(self, chunk: Chunk) -> int:
        """Top-down skylight: full light until the first opaque block."""
        opaque = OPAQUE_LUT[chunk.blocks]
        # cumulative "any opaque above" per column, scanning from the top.
        blocked = np.logical_or.accumulate(opaque[:, :, ::-1], axis=2)
        chunk.skylight[:, :, ::-1] = ~blocked * np.uint8(MAX_LIGHT)
        # The column scan is vectorized; charge one node per column, not
        # per voxel, so initial chunk lighting stays proportional to the
        # real engine's column-based skylight pass.
        return CHUNK_SIZE * CHUNK_SIZE

    def _seed_blocklight(self, chunk: Chunk) -> int:
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
        queue: deque[tuple[int, int, int, int]] = deque()
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

    # -- incremental relighting ----------------------------------------------

    def relight_column(
        self, x: int, z: int, report: WorkReport | None = None
    ) -> int:
        """Recompute skylight for one column after a block change."""
        chunk = self.world.get_chunk(x >> 4, z >> 4)
        if chunk is None:
            return 0
        lx, lz = x & 15, z & 15
        column = chunk.blocks[lx, lz]
        light = np.full(WORLD_HEIGHT, MAX_LIGHT, dtype=np.uint8)
        opaque_ys = np.flatnonzero(OPAQUE_LUT[column])
        if opaque_ys.size:
            light[: int(opaque_ys[-1]) + 1] = 0
        chunk.skylight[lx, lz] = light
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
        lx, lz = x & 15, z & 15
        return max(
            int(chunk.skylight[lx, lz, y]), int(chunk.blocklight[lx, lz, y])
        )


_NEIGHBORS = (
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
)

