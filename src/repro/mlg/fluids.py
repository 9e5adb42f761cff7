"""Fluid simulation — cellular water/lava spread (§2.2.2 "Fluids").

Water spreads from source blocks into adjacent air with a decreasing level
(stored in the block's aux value, 7 at the source's neighbor down to 1),
and flows downward without level loss.  Flowing water exerts a horizontal
push on item entities — the transport mechanism the Farm world's kelp farm
and item sorter rely on (§3.3.1).  Lava spreads the same way but slower
(every third fluid tick), with a shorter reach, and without pushing items.

Each due batch is processed as one chunk-grouped numpy pass: bulk-read the
cells and their neighborhoods from a tick-start snapshot, classify
support / flow-down / sideways spread as masks, merge the writes (max
fluid level wins, any fluid write beats a clear — the same outcome a
cell-by-cell loop over the queue produces regardless of queue order), and
apply them through :meth:`World.set_blocks_bulk`.  The cell-by-cell loop is
the oracle of ``tests/mlg/test_terrain_parity.py``, which pins final
worlds bit-identical and the queue sequence equal.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["FluidEngine"]

#: Water updates run every 5 game ticks (vanilla's fluid tick rate).
WATER_TICK_INTERVAL = 5
#: Lava is slower: one update every 15 game ticks (a multiple of the
#: water interval so both queues drain on a shared fluid tick).
LAVA_TICK_INTERVAL = 15
#: Maximum horizontal spread level for water.
MAX_FLOW_LEVEL = 7
#: Maximum horizontal spread level for lava (shorter reach than water).
MAX_LAVA_FLOW_LEVEL = 3

#: Neighborhood offsets used by the batched gather, as (dx, dy, dz)
#: columns: self, below, above, +x, -x, +z, -z.
_OFF_X = np.array([0, 0, 0, 1, -1, 0, 0], dtype=np.int64)
_OFF_Y = np.array([0, -1, 1, 0, 0, 0, 0], dtype=np.int64)
_OFF_Z = np.array([0, 0, 0, 0, 0, 1, -1], dtype=np.int64)
#: Column indices into the (n, 7) neighborhood arrays.
_SELF, _BELOW, _ABOVE = 0, 1, 2
_SIDES = slice(3, 7)
#: (dx, dz) for the four side columns, matching _OFF_X/_OFF_Z order.
_SIDE_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1))
#: The six face neighbours, in :meth:`World.neighbors6` order.
_NEAR_X = np.array([1, -1, 0, 0, 0, 0], dtype=np.int64)
_NEAR_Y = np.array([0, 0, 1, -1, 0, 0], dtype=np.int64)
_NEAR_Z = np.array([0, 0, 0, 0, 1, -1], dtype=np.int64)


class FluidEngine:
    """Schedules and executes fluid spread updates."""

    def __init__(
        self,
        world: World,
        max_updates_per_tick: int = 4096,
    ) -> None:
        self.world = world
        self.max_updates_per_tick = max_updates_per_tick
        self._queue: deque[tuple[int, int, int]] = deque()
        self._queued: set[tuple[int, int, int]] = set()
        self._lava_queue: deque[tuple[int, int, int]] = deque()
        self._lava_queued: set[tuple[int, int, int]] = set()

    def schedule(self, x: int, y: int, z: int) -> None:
        """Queue a fluid update at a position (idempotent per tick).

        Lava cells go to the slow queue; everything else (including cells
        whose type is not yet known) rides the water-rate queue — a stale
        entry is reclassified, uncharged, when it is popped.
        """
        if self.world.get_block(x, y, z) == Block.LAVA:
            self._schedule_lava([(x, y, z)])
        else:
            self._schedule_water([(x, y, z)])

    def _schedule_water(self, cells: Iterable[tuple[int, int, int]]) -> None:
        _enqueue(self._queue, self._queued, cells)

    def _schedule_lava(self, cells: Iterable[tuple[int, int, int]]) -> None:
        _enqueue(self._lava_queue, self._lava_queued, cells)

    def schedule_neighbors(self, x: int, y: int, z: int) -> None:
        """Queue updates for fluid blocks adjacent to a changed block."""
        self.schedule_neighbors_bulk([x], [y], [z])

    def schedule_neighbors_bulk(self, xs, ys, zs) -> None:
        """Queue updates for the fluid blocks adjacent to each changed
        block: one read of the ``[n, 6]`` neighborhoods, queued block by
        block with each block's neighbors in :meth:`World.neighbors6`
        order."""
        nx = np.asarray(xs, dtype=np.int64)[:, None] + _NEAR_X
        ny = np.asarray(ys, dtype=np.int64)[:, None] + _NEAR_Y
        nz = np.asarray(zs, dtype=np.int64)[:, None] + _NEAR_Z
        blocks = self.world.blocks_bulk(nx, ny, nz)
        water = (blocks == Block.WATER_SOURCE) | (blocks == Block.WATER_FLOW)
        for fluid, schedule in (
            (water, self._schedule_water),
            (blocks == Block.LAVA, self._schedule_lava),
        ):
            at = np.nonzero(fluid)
            schedule(_cells(nx[at], ny[at], nz[at]))

    def queued_chunks(self) -> set[tuple[int, int]]:
        """Chunks holding scheduled fluid cells (anchors for eviction)."""
        chunks: set[tuple[int, int]] = set()
        for x, _y, z in self._queued:
            chunks.add((x >> 4, z >> 4))
        for x, _y, z in self._lava_queued:
            chunks.add((x >> 4, z >> 4))
        return chunks

    @property
    def pending(self) -> int:
        return len(self._queue) + len(self._lava_queue)

    def tick(self, tick_number: int, report: WorkReport) -> int:
        """Process due fluid updates; returns the number of *effective*
        updates (cells that still held fluid when popped — stale queue
        entries are dropped without charging :data:`Op.FLUID` work)."""
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
        if water_cells:
            effective += self._update_water_batch(water_cells, report)
        if lava_cells:
            effective += self._update_lava_batch(lava_cells, report)
        if effective:
            report.add(Op.FLUID, effective)
        return effective

    # -- batched updates ------------------------------------------------------

    def _gather(self, cells: list[tuple[int, int, int]]):
        """Snapshot the 7-cell neighborhood of every queued position."""
        x, y, z = np.array(cells, dtype=np.int64).T
        blocks, auxs = self.world.blocks_and_aux_bulk(
            x[:, None] + _OFF_X, y[:, None] + _OFF_Y, z[:, None] + _OFF_Z
        )
        return x, y, z, blocks, auxs

    def _update_water_batch(
        self, cells: list[tuple[int, int, int]], report: WorkReport
    ) -> int:
        x, y, z, blocks, auxs = self._gather(cells)
        b0 = blocks[:, _SELF]
        a0 = auxs[:, _SELF].astype(np.int64)
        is_src = b0 == Block.WATER_SOURCE
        is_flow = b0 == Block.WATER_FLOW
        effective = is_src | is_flow
        if not effective.any():
            return 0
        above_b = blocks[:, _ABOVE]
        side_b = blocks[:, _SIDES]
        side_a = auxs[:, _SIDES].astype(np.int64)
        below_b = blocks[:, _BELOW]
        below_a = auxs[:, _BELOW].astype(np.int64)
        supported = (
            (above_b == Block.WATER_SOURCE)
            | (above_b == Block.WATER_FLOW)
            | (side_b == Block.WATER_SOURCE).any(axis=1)
            | (
                (side_b == Block.WATER_FLOW) & (side_a > a0[:, None])
            ).any(axis=1)
        )
        return self._spread_batch(
            x, y, z, report,
            effective=effective,
            is_flow=is_flow,
            level=np.where(is_src, MAX_FLOW_LEVEL + 1, a0),
            supported=supported,
            below_is_air=below_b == Block.AIR,
            below_refreshable=(below_b == Block.WATER_FLOW)
            & (below_a < MAX_FLOW_LEVEL),
            side_b=side_b,
            side_a=side_a,
            # A water flow's aux may be raised whenever it is weaker.
            side_raisable=side_b == Block.WATER_FLOW,
            flow_block=Block.WATER_FLOW,
            max_level=MAX_FLOW_LEVEL,
            schedule=self._schedule_water,
        )

    def _update_lava_batch(
        self, cells: list[tuple[int, int, int]], report: WorkReport
    ) -> int:
        x, y, z, blocks, auxs = self._gather(cells)
        b0 = blocks[:, _SELF]
        a0 = auxs[:, _SELF].astype(np.int64)
        is_lava = b0 == Block.LAVA
        if not is_lava.any():
            return 0
        is_src = is_lava & (a0 == 0)
        above_b = blocks[:, _ABOVE]
        side_b = blocks[:, _SIDES]
        side_a = auxs[:, _SIDES].astype(np.int64)
        below_b = blocks[:, _BELOW]
        below_a = auxs[:, _BELOW].astype(np.int64)
        side_lava = side_b == Block.LAVA
        supported = (
            (above_b == Block.LAVA)
            | (side_lava & (side_a == 0)).any(axis=1)
            | (side_lava & (side_a > a0[:, None])).any(axis=1)
        )
        return self._spread_batch(
            x, y, z, report,
            effective=is_lava,
            is_flow=is_lava & (a0 > 0),
            level=np.where(is_src, MAX_LAVA_FLOW_LEVEL + 1, a0),
            supported=supported,
            below_is_air=below_b == Block.AIR,
            below_refreshable=(below_b == Block.LAVA)
            & (below_a > 0)
            & (below_a < MAX_LAVA_FLOW_LEVEL),
            side_b=side_b,
            side_a=side_a,
            # aux 0 marks a lava *source*; only flows (aux > 0) may be
            # raised.
            side_raisable=side_lava & (side_a > 0),
            flow_block=Block.LAVA,
            max_level=MAX_LAVA_FLOW_LEVEL,
            schedule=self._schedule_lava,
        )

    def _spread_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        report: WorkReport,
        effective: np.ndarray,
        is_flow: np.ndarray,
        level: np.ndarray,
        supported: np.ndarray,
        below_is_air: np.ndarray,
        below_refreshable: np.ndarray,
        side_b: np.ndarray,
        side_a: np.ndarray,
        side_raisable: np.ndarray,
        flow_block: int,
        max_level: int,
        schedule,
    ) -> int:
        """Shared spread kernel: classify clear/down/refresh/sideways from
        the snapshot masks, merge the writes, apply, and reschedule."""
        clear = is_flow & ~supported
        active = effective & ~clear
        below_in_bounds = y - 1 >= 0
        down = active & below_in_bounds & below_is_air
        refresh = active & below_in_bounds & ~down & below_refreshable
        sideways = active & ~down & ~refresh & (level - 1 > 0)
        next_level = level - 1

        # Collect writes: (x, y, z, level, kind).  kind 0 = clear self,
        # kind 1 = full block write (snapshot target was AIR), kind 2 =
        # aux raise (snapshot target was already this fluid's flow).
        wx: list[np.ndarray] = []
        wy: list[np.ndarray] = []
        wz: list[np.ndarray] = []
        wl: list[np.ndarray] = []
        wk: list[np.ndarray] = []

        def _collect(mask, tx, ty, tz, lvl, kind):
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                return
            wx.append(tx[idx])
            wy.append(ty[idx])
            wz.append(tz[idx])
            lvl = np.broadcast_to(lvl, mask.shape)
            wl.append(lvl[idx])
            wk.append(np.full(idx.size, kind, dtype=np.int64))

        _collect(clear, x, y, z, np.zeros(len(x), dtype=np.int64), 0)
        _collect(down, x, y - 1, z, np.full(len(x), max_level), 1)
        _collect(refresh, x, y - 1, z, np.full(len(x), max_level), 2)
        for col, (dx, dz) in enumerate(_SIDE_OFFSETS):
            nb = side_b[:, col]
            na = side_a[:, col]
            into_air = sideways & (nb == Block.AIR)
            raise_aux = (
                sideways & side_raisable[:, col] & (na < next_level)
            )
            _collect(into_air, x + dx, y, z + dz, next_level, 1)
            _collect(raise_aux, x + dx, y, z + dz, next_level, 2)

        self._apply_writes(
            wx, wy, wz, wl, wk,
            flow_block=flow_block,
            schedule=schedule,
            report=report,
        )
        # Cleared cells wake their fluid neighbors.
        if clear.any():
            self.schedule_neighbors_bulk(x[clear], y[clear], z[clear])
        return int(effective.sum())

    def _apply_writes(
        self,
        wx: list[np.ndarray],
        wy: list[np.ndarray],
        wz: list[np.ndarray],
        wl: list[np.ndarray],
        wk: list[np.ndarray],
        flow_block: int,
        schedule,
        report: WorkReport,
    ) -> None:
        """Merge and apply a batch's collected writes.

        Duplicate targets resolve exactly like the sequential scalar loop:
        the maximum fluid level wins, and any fluid write into a position
        beats that position clearing itself (the neighbor's spread re-fills
        the cell whichever order the queue presented them in).
        """
        if not wx:
            return
        x = np.concatenate(wx)
        y = np.concatenate(wy)
        z = np.concatenate(wz)
        lvl = np.concatenate(wl)
        kind = np.concatenate(wk)
        # Sort by (position, kind, level) so the last entry per position
        # is the winning write: aux raises (kind 2) > block writes (1) >
        # clears (0); within a kind the highest level wins.
        key = (
            ((x & 0xFFFFFF) << 40) | ((z & 0xFFFFFF) << 16) | (y & 0xFFFF)
        )
        order = np.lexsort((lvl, kind, key))
        key, x, y, z = key[order], x[order], y[order], z[order]
        lvl, kind = lvl[order], kind[order]
        last = np.ones(len(key), dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        x, y, z = x[last], y[last], z[last]
        lvl, kind = lvl[last], kind[last]

        blocks_mask = kind <= 1
        if blocks_mask.any():
            bx, by, bz = x[blocks_mask], y[blocks_mask], z[blocks_mask]
            blvl = lvl[blocks_mask]
            new_blocks = np.where(
                kind[blocks_mask] == 0, Block.AIR, flow_block
            ).astype(np.uint8)
            changed = self.world.set_blocks_bulk(
                bx, by, bz, new_blocks, auxs=blvl.astype(np.uint8)
            )
            if changed:
                report.add(Op.BLOCK_ADD_REMOVE, changed)
        aux_mask = kind == 2
        if aux_mask.any():
            self.world.set_aux_bulk(
                x[aux_mask], y[aux_mask], z[aux_mask], lvl[aux_mask]
            )
        # Every written target re-checks itself on the next due tick.
        written = kind != 0
        schedule(_cells(x[written], y[written], z[written]))

    # -- item transport -------------------------------------------------------

    def flow_vector(self, x: int, y: int, z: int) -> tuple[float, float]:
        """Horizontal push (blocks/s) that water at a position applies.

        Flowing water pushes towards its lowest-level neighbor; source and
        still water push nowhere.  Lava exerts no item push.
        """
        block = self.world.get_block(x, y, z)
        if block != Block.WATER_FLOW:
            return (0.0, 0.0)
        my_level = self.world.get_aux(x, y, z)
        best = (0.0, 0.0)
        best_level = my_level
        for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, nz = x + dx, z + dz
            neighbor = self.world.get_block(nx, y, nz)
            if neighbor == Block.WATER_FLOW:
                level = self.world.get_aux(nx, y, nz)
                if level < best_level:
                    best_level = level
                    best = (float(dx), float(dz))
            elif neighbor == Block.AIR and self.world.get_block(
                nx, y - 1, nz
            ) in (Block.WATER_FLOW, Block.WATER_SOURCE):
                return (float(dx) * 2.0, float(dz) * 2.0)
        scale = 1.4
        return (best[0] * scale, best[1] * scale)


def _cells(xs: np.ndarray, ys: np.ndarray, zs: np.ndarray):
    """Coordinate arrays as ``(x, y, z)`` tuples of Python ints."""
    return zip(xs.tolist(), ys.tolist(), zs.tolist())


def _enqueue(queue: deque, queued: set, cells) -> None:
    """Append the ``cells`` not already waiting in ``queue``, in order."""
    for cell in cells:
        if cell not in queued:
            queued.add(cell)
            queue.append(cell)
