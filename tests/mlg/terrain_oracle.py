"""The cell-by-cell terrain engines as they stood in ``src/`` beside their
batched twins, verbatim: the oracles of ``test_terrain_parity.py`` and
``test_chunk_arena.py``.

``ScalarFluidEngine`` is the old ``FluidEngine(batched=False)``: it pops
the due cells and updates them one at a time against the live world, each
scheduling what it wrote as it goes and waking a cleared cell's neighbors
with six ``get_block`` calls.  ``DequeCellQueue`` is the fluid queue as a
``deque`` of ``(x, y, z)`` tuples and a ``set`` of the queued ones, behind
the packed queue's interface.  ``on_block_changes`` is the observer scan
as a loop over change records.  ``growth_tick_scalar`` is the old
``GrowthEngine.tick_scalar``: every drawn position of every chunk read and
dispatched in a Python loop.  ``fill_per_cell`` is the old body of
``World.fill``: one ``set_blocks_bulk`` over the cuboid's cell coordinates.
Nothing here is imported by ``src/``.
"""

from collections import deque

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.constants import RANDOM_TICK_SPEED, WORLD_HEIGHT
from repro.mlg.fluids import (
    LAVA_TICK_INTERVAL,
    MAX_FLOW_LEVEL,
    MAX_LAVA_FLOW_LEVEL,
    WATER_TICK_INTERVAL,
    FluidEngine,
)
from repro.mlg.redstone import REDSTONE_TICK_US
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import cuboid_cells, pack_cells, unpack_cells


class DequeCellQueue:
    """A fluid queue as a ``deque`` and a ``set`` of ``(x, y, z)``, taking
    and returning packed keys like the engine's own queue."""

    def __init__(self) -> None:
        self.queue: deque[tuple[int, int, int]] = deque()
        self.queued: set[tuple[int, int, int]] = set()

    def __len__(self) -> int:
        return len(self.queue)

    def push(self, keys) -> None:
        for cell in zip(*(axis.tolist() for axis in unpack_cells(keys))):
            if cell not in self.queued:
                self.queued.add(cell)
                self.queue.append(cell)

    def pop(self, n: int):
        cells = [self.queue.popleft() for _ in range(min(n, len(self.queue)))]
        self.queued.difference_update(cells)
        return pack_cells(*np.array(cells, dtype=np.int64).reshape(-1, 3).T)

    def cells(self) -> list[tuple[int, int, int]]:
        return list(self.queue)


class ScalarFluidEngine(FluidEngine):
    """:class:`FluidEngine` with the per-cell code paths it used to have."""

    def __init__(self, world, max_updates_per_tick: int = 4096) -> None:
        super().__init__(world, max_updates_per_tick)
        self._queue: deque[tuple[int, int, int]] = deque()
        self._queued: set[tuple[int, int, int]] = set()
        self._lava_queue: deque[tuple[int, int, int]] = deque()
        self._lava_queued: set[tuple[int, int, int]] = set()

    @property
    def pending(self) -> int:
        return len(self._queue) + len(self._lava_queue)

    def queued_cells(self):
        return list(self._queue), list(self._lava_queue)

    def schedule(self, x: int, y: int, z: int) -> None:
        """Queue a fluid update at a position (idempotent per tick).

        Lava cells go to the slow queue; everything else (including cells
        whose type is not yet known) rides the water-rate queue — a stale
        entry is reclassified, uncharged, when it is popped.
        """
        if self.world.get_block(x, y, z) == Block.LAVA:
            self._schedule_lava(x, y, z)
        else:
            self._schedule_water(x, y, z)

    def _schedule_water(self, x: int, y: int, z: int) -> None:
        key = (x, y, z)
        if key not in self._queued:
            self._queued.add(key)
            self._queue.append(key)

    def _schedule_lava(self, x: int, y: int, z: int) -> None:
        key = (x, y, z)
        if key not in self._lava_queued:
            self._lava_queued.add(key)
            self._lava_queue.append(key)

    def schedule_neighbors(self, x: int, y: int, z: int) -> None:
        """Queue updates for fluid blocks adjacent to a changed block."""
        for nx, ny, nz in self.world.neighbors6(x, y, z):
            block = self.world.get_block(nx, ny, nz)
            if block in (Block.WATER_SOURCE, Block.WATER_FLOW):
                self._schedule_water(nx, ny, nz)
            elif block == Block.LAVA:
                self._schedule_lava(nx, ny, nz)

    def schedule_neighbors_bulk(self, xs, ys, zs) -> None:
        for x, y, z in zip(xs, ys, zs):
            self.schedule_neighbors(int(x), int(y), int(z))

    def tick(self, tick_number: int, report: WorkReport) -> int:
        if tick_number % WATER_TICK_INTERVAL != 0:
            return 0
        budget = self.max_updates_per_tick
        n_water = min(len(self._queue), budget)
        water_cells = [self._queue.popleft() for _ in range(n_water)]
        self._queued.difference_update(water_cells)
        lava_cells: list[tuple[int, int, int]] = []
        if tick_number % LAVA_TICK_INTERVAL == 0:
            n_lava = min(len(self._lava_queue), budget - n_water)
            lava_cells = [self._lava_queue.popleft() for _ in range(n_lava)]
            self._lava_queued.difference_update(lava_cells)
        effective = 0
        for x, y, z in water_cells:
            effective += self._update_water_cell(x, y, z, report)
        for x, y, z in lava_cells:
            effective += self._update_lava_cell(x, y, z, report)
        if effective:
            report.add(Op.FLUID, effective)
        return effective

    def _update_water_cell(
        self, x: int, y: int, z: int, report: WorkReport
    ) -> int:
        """Scalar water update; returns 1 when the cell was effective."""
        block = self.world.get_block(x, y, z)
        if block == Block.WATER_SOURCE:
            level = MAX_FLOW_LEVEL + 1
        elif block == Block.WATER_FLOW:
            level = self.world.get_aux(x, y, z)
            if not self._is_supported(x, y, z):
                self.world.set_block(x, y, z, Block.AIR)
                report.add(Op.BLOCK_ADD_REMOVE)
                self.schedule_neighbors(x, y, z)
                return 1
        else:
            return 0
        # Flow down first (full strength), then sideways with decay.
        below = self.world.get_block(x, y - 1, z)
        if y - 1 >= 0:
            if below == Block.AIR:
                self.world.set_block(x, y - 1, z, Block.WATER_FLOW,
                                     aux=MAX_FLOW_LEVEL)
                report.add(Op.BLOCK_ADD_REMOVE)
                self._schedule_water(x, y - 1, z)
                return 1
            if (
                below == Block.WATER_FLOW
                and self.world.get_aux(x, y - 1, z) < MAX_FLOW_LEVEL
            ):
                # Falling water refreshes the weaker flow beneath it —
                # previously only AIR below was ever written, so a
                # lower-level flow under a source stayed stale forever.
                self.world.set_aux(x, y - 1, z, MAX_FLOW_LEVEL)
                self._schedule_water(x, y - 1, z)
                return 1
        next_level = level - 1
        if next_level <= 0:
            return 1
        for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            neighbor = self.world.get_block(nx, y, nz)
            if neighbor == Block.AIR:
                self.world.set_block(nx, y, nz, Block.WATER_FLOW,
                                     aux=next_level)
                report.add(Op.BLOCK_ADD_REMOVE)
                self._schedule_water(nx, y, nz)
            elif (
                neighbor == Block.WATER_FLOW
                and self.world.get_aux(nx, y, nz) < next_level
            ):
                self.world.set_aux(nx, y, nz, next_level)
                self._schedule_water(nx, y, nz)
        return 1

    def _update_lava_cell(
        self, x: int, y: int, z: int, report: WorkReport
    ) -> int:
        """Scalar lava update: slower, shorter-reach water spread."""
        if self.world.get_block(x, y, z) != Block.LAVA:
            return 0
        aux = self.world.get_aux(x, y, z)
        if aux == 0:
            level = MAX_LAVA_FLOW_LEVEL + 1
        else:
            level = aux
            if not self._is_lava_supported(x, y, z):
                self.world.set_block(x, y, z, Block.AIR)
                report.add(Op.BLOCK_ADD_REMOVE)
                self.schedule_neighbors(x, y, z)
                return 1
        below = self.world.get_block(x, y - 1, z)
        if y - 1 >= 0:
            if below == Block.AIR:
                self.world.set_block(x, y - 1, z, Block.LAVA,
                                     aux=MAX_LAVA_FLOW_LEVEL)
                report.add(Op.BLOCK_ADD_REMOVE)
                self._schedule_lava(x, y - 1, z)
                return 1
            below_aux = self.world.get_aux(x, y - 1, z)
            if (
                below == Block.LAVA
                and 0 < below_aux < MAX_LAVA_FLOW_LEVEL
            ):
                self.world.set_aux(x, y - 1, z, MAX_LAVA_FLOW_LEVEL)
                self._schedule_lava(x, y - 1, z)
                return 1
        next_level = level - 1
        if next_level <= 0:
            return 1
        for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            neighbor = self.world.get_block(nx, y, nz)
            if neighbor == Block.AIR:
                self.world.set_block(nx, y, nz, Block.LAVA, aux=next_level)
                report.add(Op.BLOCK_ADD_REMOVE)
                self._schedule_lava(nx, y, nz)
            elif neighbor == Block.LAVA:
                n_aux = self.world.get_aux(nx, y, nz)
                if 0 < n_aux < next_level:
                    self.world.set_aux(nx, y, nz, next_level)
                    self._schedule_lava(nx, y, nz)
        return 1

    def _is_supported(self, x: int, y: int, z: int) -> bool:
        """A flow block survives only while fed by a higher-level neighbor."""
        my_level = self.world.get_aux(x, y, z)
        above = self.world.get_block(x, y + 1, z)
        if above in (Block.WATER_SOURCE, Block.WATER_FLOW):
            return True
        for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            neighbor = self.world.get_block(nx, y, nz)
            if neighbor == Block.WATER_SOURCE:
                return True
            if (
                neighbor == Block.WATER_FLOW
                and self.world.get_aux(nx, y, nz) > my_level
            ):
                return True
        return False

    def _is_lava_supported(self, x: int, y: int, z: int) -> bool:
        """Flowing lava survives while fed by a source or stronger flow."""
        my_level = self.world.get_aux(x, y, z)
        if self.world.get_block(x, y + 1, z) == Block.LAVA:
            return True
        for nx, nz in ((x + 1, z), (x - 1, z), (x, z + 1), (x, z - 1)):
            if self.world.get_block(nx, y, nz) != Block.LAVA:
                continue
            n_aux = self.world.get_aux(nx, y, nz)
            if n_aux == 0 or n_aux > my_level:
                return True
        return False


def on_block_changes(self, changes, now_us: int) -> None:
    """``RedstoneEngine.on_block_changes`` as a loop over the changes'
    records and a set of the observers; ``self`` is the engine."""
    observers = set(
        zip(*(axis.tolist() for axis in unpack_cells(self._observers)))
    )
    if not observers:
        return
    for change in changes.records():
        x, y, z = change.x, change.y, change.z
        for pos in (
            (x + 1, y, z),
            (x - 1, y, z),
            (x, y + 1, z),
            (x, y - 1, z),
            (x, y, z + 1),
            (x, y, z - 1),
        ):
            if pos in observers:
                self._push(now_us + REDSTONE_TICK_US, "observer_pulse", (pos,))


def growth_tick_scalar(self, report: WorkReport) -> int:
    """Scalar reference for ``GrowthEngine.tick`` (per-chunk per-draw
    loop); ``self`` is the engine."""
    chunks, lxs, lzs, ys = self._draw()
    if not chunks:
        return 0
    applied = 0
    for i, chunk in enumerate(chunks):
        base = i * RANDOM_TICK_SPEED
        for j in range(RANDOM_TICK_SPEED):
            lx = int(lxs[base + j])
            lz = int(lzs[base + j])
            y = int(ys[base + j])
            block = int(chunk.blocks[lx, lz, y])
            applied += 1
            if block == Block.CROP:
                self._grow_crop(chunk, lx, lz, y)
            elif block == Block.KELP:
                self._grow_kelp(chunk, lx, lz, y, report)
            elif block == Block.SAPLING:
                self._grow_sapling(chunk, lx, lz, y, report)
    report.add(Op.GROWTH, applied)
    return applied


def fill_per_cell(
    world, x0: int, y0: int, z0: int, x1: int, y1: int, z1: int,
    block_id: int, log: bool = False,
) -> int:
    """``World.fill`` as one ``set_blocks_bulk`` over the cuboid's cells;
    ``world`` is the world written."""
    if x1 < x0 or y1 < y0 or z1 < z0:
        raise ValueError("fill cuboid corners must be ordered")
    ylo, yhi = max(y0, 0), min(y1, WORLD_HEIGHT - 1)
    if ylo > yhi:
        return 0
    # Every chunk under the cuboid, x then z: the order they load in
    # is the order random ticks will visit them.
    world.ensure_chunks(
        (cx, cz)
        for cx in range(x0 >> 4, (x1 >> 4) + 1)
        for cz in range(z0 >> 4, (z1 >> 4) + 1)
    )
    xs, ys, zs = cuboid_cells(x0, ylo, z0, x1, yhi, z1)
    ids = np.full(xs.size, block_id, dtype=np.uint8)
    return world.set_blocks_bulk(xs, ys, zs, ids, log=log)
