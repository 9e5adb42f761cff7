"""Plant growth via random ticks (§2.2.2 "Plant Growth").

Each loaded chunk receives ``RANDOM_TICK_SPEED`` random block ticks per game
tick; crops advance growth stages, kelp grows upward through water, and
saplings become trees.  Growth reshapes terrain over time, generating new
workload without player input — one of the paper's environment-based
workload sources.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.constants import (
    CHUNK_SIZE,
    RANDOM_TICK_SPEED,
    SEA_LEVEL,
    WORLD_HEIGHT,
)
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["GrowthEngine", "CROP_MATURE_STAGE"]

#: Crops are harvestable at this aux stage.
CROP_MATURE_STAGE = 7
#: Maximum kelp stalk height.
KELP_MAX_HEIGHT = 12


class GrowthEngine:
    """Applies random ticks to loaded chunks."""

    def __init__(self, world: World, rng: np.random.Generator) -> None:
        self.world = world
        self.rng = rng
        #: Positions where a crop matured this tick (harvesters consume).
        self.matured: list[tuple[int, int, int]] = []

    def tick(self, report: WorkReport) -> int:
        """Run random ticks on every loaded chunk; returns ticks applied.

        One vectorized gather reads every drawn position across every
        loaded chunk at once; only the rare CROP/KELP/SAPLING hits are
        dispatched to the scalar growth handlers, in draw order — the run
        is bit-identical to reading every drawn position in a loop (the
        oracle of ``tests/mlg/test_terrain_parity.py``).
        """
        chunks, lxs, lzs, ys = self._draw()
        if not chunks:
            return 0
        n = lxs.size
        blocks = self.world.blocks_per_chunk(lxs, lzs, ys)
        heap = np.flatnonzero(
            (blocks == Block.CROP)
            | (blocks == Block.KELP)
            | (blocks == Block.SAPLING)
        ).tolist()
        heapq.heapify(heap)
        while heap:
            k = heapq.heappop(heap)
            chunk = chunks[k // RANDOM_TICK_SPEED]
            lx, lz, y = int(lxs[k]), int(lzs[k]), int(ys[k])
            # Re-read live: an earlier hit this tick (a sapling's canopy,
            # growing kelp) may have overwritten a later drawn position.
            block = int(chunk.blocks[lx, lz, y])
            if block == Block.CROP:
                self._grow_crop(chunk, lx, lz, y)
            elif block == Block.KELP:
                grown_y = self._grow_kelp(chunk, lx, lz, y, report)
                if grown_y is not None:
                    # Kelp growth is the one mutation that can turn a
                    # later snapshot-miss into a live hit; promote any
                    # remaining draw of this chunk that landed on the
                    # freshly grown cell, as a position-by-position loop
                    # would meet it.
                    chunk_end = (k // RANDOM_TICK_SPEED + 1) * RANDOM_TICK_SPEED
                    for j in range(k + 1, chunk_end):
                        if (
                            int(lxs[j]) == lx
                            and int(lzs[j]) == lz
                            and int(ys[j]) == grown_y
                        ):
                            heapq.heappush(heap, j)
            elif block == Block.SAPLING:
                self._grow_sapling(chunk, lx, lz, y, report)
        report.add(Op.GROWTH, n)
        return n

    def _draw(self):
        """The loaded chunks and one vectorized draw of positions for all."""
        self.matured.clear()
        chunks = list(self.world.loaded_chunks())
        n = len(chunks) * RANDOM_TICK_SPEED
        lxs = self.rng.integers(0, CHUNK_SIZE, size=n)
        lzs = self.rng.integers(0, CHUNK_SIZE, size=n)
        ys = self.rng.integers(0, WORLD_HEIGHT, size=n)
        return chunks, lxs, lzs, ys

    def _grow_crop(self, chunk, lx: int, lz: int, y: int) -> None:
        aux = chunk.aux
        stage = int(aux[lx, lz, y])
        if stage < CROP_MATURE_STAGE:
            aux[lx, lz, y] = stage + 1
            chunk.dirty = True
            if stage + 1 == CROP_MATURE_STAGE:
                x = chunk.cx * CHUNK_SIZE + lx
                z = chunk.cz * CHUNK_SIZE + lz
                self.matured.append((x, y, z))

    def _grow_kelp(
        self, chunk, lx: int, lz: int, y: int, report: WorkReport
    ) -> int | None:
        """Returns the y the stalk grew into, or None if it did not grow."""
        # Kelp grows one block up through water, bounded by stalk height.
        column = chunk.blocks[lx, lz]
        top = y
        while top + 1 < WORLD_HEIGHT and column[top + 1] == Block.KELP:
            top += 1
        base = y
        while base > 0 and column[base - 1] == Block.KELP:
            base -= 1
        if top - base + 1 >= KELP_MAX_HEIGHT:
            return None
        above = top + 1
        if (
            above < min(SEA_LEVEL, WORLD_HEIGHT)
            and column[above] == Block.WATER_SOURCE
        ):
            x = chunk.cx * CHUNK_SIZE + lx
            z = chunk.cz * CHUNK_SIZE + lz
            self.world.set_block(x, above, z, Block.KELP)
            report.add(Op.BLOCK_ADD_REMOVE)
            return above
        return None

    def _grow_sapling(
        self, chunk, lx: int, lz: int, y: int, report: WorkReport
    ) -> None:
        if self.rng.random() > 0.2 or y + 6 >= WORLD_HEIGHT:
            return
        x = chunk.cx * CHUNK_SIZE + lx
        z = chunk.cz * CHUNK_SIZE + lz
        for dy in range(5):
            self.world.set_block(x, y + dy, z, Block.WOOD)
        for dx in range(-2, 3):
            for dz in range(-2, 3):
                for dy in range(3, 6):
                    if abs(dx) + abs(dz) + abs(dy - 4) <= 4:
                        if (
                            self.world.get_block(x + dx, y + dy, z + dz)
                            == Block.AIR
                        ):
                            self.world.set_block(
                                x + dx, y + dy, z + dz, Block.LEAVES
                            )
        report.add(Op.BLOCK_ADD_REMOVE, 5 + 20)
