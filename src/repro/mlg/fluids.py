"""Fluid simulation — cellular water/lava spread (§2.2.2 "Fluids").

Water spreads from source blocks into adjacent air with a decreasing level
(stored in the block's aux value, 7 at the source's neighbor down to 1),
and flows downward without level loss.  Flowing water exerts a horizontal
push on item entities — the transport mechanism the Farm world's kelp farm
and item sorter rely on (§3.3.1).  Lava spreads the same way but slower
(every third fluid tick), with a shorter reach, and without pushing items.

Each queue is a FIFO of packed cell keys (:func:`~repro.mlg.world.
pack_cells`) in which a cell waits at most once: a push appends the first
occurrence of each key not already queued, in input order, and a pop is a
slice.  Each due batch is processed as one numpy pass: bulk-read the cells
and their neighborhoods from a tick-start snapshot, classify support /
flow-down / sideways spread as masks, lay every cell's candidate writes out
as one ``[n, 11]`` matrix, merge them (max fluid level wins, any fluid
write beats a clear — the same outcome a cell-by-cell loop over the queue
produces regardless of queue order), and apply them through
:meth:`World.set_blocks_bulk`.  The cell-by-cell loop and the
``deque`` + ``set`` queue are the oracles of
``tests/mlg/test_terrain_parity.py``, which pins final worlds bit-identical
and the queue sequence equal.
"""

from __future__ import annotations

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import (
    World,
    face_neighbours,
    in_sorted,
    pack_cells,
    run_heads,
    unpack_cells,
)

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
#: A cell's candidate writes, as columns of the ``[n, 11]`` matrix: clear
#: itself, flow down, refresh the flow below, then into air / raise for
#: each side in _OFF_X/_OFF_Z order.  Target offsets and write kind (0 =
#: clear self, 1 = full block write — the snapshot target was AIR, 2 = aux
#: raise — it was already this fluid's flow).
_CAND_DX = np.array([0, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0], dtype=np.int64)
_CAND_DY = np.array([0, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=np.int64)
_CAND_DZ = np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, -1, -1], dtype=np.int64)
_CAND_KIND = np.array([0, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2], dtype=np.int64)
_N_CAND = _CAND_KIND.size
_NO_KEYS = np.empty(0, np.int64)


class _CellQueue:
    """FIFO of packed cell keys in which a cell waits at most once."""

    __slots__ = ("keys",)

    def __init__(self) -> None:
        self.keys = _NO_KEYS

    def __len__(self) -> int:
        return self.keys.size

    def push(self, keys: np.ndarray) -> None:
        """Append the ``keys`` not already queued, each at its first
        occurrence, in input order."""
        if not keys.size:
            return
        # A stable sort puts each key's first occurrence at the head of
        # its run; keep the heads not already queued, in input order.
        # (np.unique and np.isin do the same in four times the time.)
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        head = run_heads(ranked)
        if self.keys.size:
            head &= ~in_sorted(ranked, np.sort(self.keys))
        first = order[head]
        first.sort()
        self.keys = np.concatenate((self.keys, keys[first]))

    def pop(self, n: int) -> np.ndarray:
        """Remove and return the first ``n`` keys."""
        head, self.keys = self.keys[:n], self.keys[n:]
        return head

    def cells(self) -> list[tuple[int, int, int]]:
        return list(zip(*(axis.tolist() for axis in unpack_cells(self.keys))))


class FluidEngine:
    """Schedules and executes fluid spread updates."""

    def __init__(
        self,
        world: World,
        max_updates_per_tick: int = 4096,
    ) -> None:
        self.world = world
        self.max_updates_per_tick = max_updates_per_tick
        self._water = _CellQueue()
        self._lava = _CellQueue()

    def schedule_neighbors(self, x: int, y: int, z: int) -> None:
        """Queue updates for fluid blocks adjacent to a changed block."""
        self.schedule_neighbors_bulk([x], [y], [z])

    def schedule_neighbors_bulk(self, xs, ys, zs) -> None:
        """Queue updates for the fluid blocks adjacent to each changed
        block: one read of the ``[n, 6]`` neighborhoods, queued block by
        block with each block's neighbors in :meth:`World.neighbors6`
        order."""
        near = face_neighbours(xs, ys, zs)
        blocks = self.world.blocks_bulk(*near)
        water = (blocks == Block.WATER_SOURCE) | (blocks == Block.WATER_FLOW)
        for fluid, queue in (
            (water, self._water),
            (blocks == Block.LAVA, self._lava),
        ):
            queue.push(pack_cells(*(axis[fluid] for axis in near)))

    def queued_chunks(self) -> set[tuple[int, int]]:
        """Chunks holding scheduled fluid cells (anchors for eviction)."""
        x, _y, z = unpack_cells(
            np.concatenate((self._water.keys, self._lava.keys))
        )
        chunks = pack_cells(x >> 4, 0, z >> 4)
        chunks.sort()
        cx, _y, cz = unpack_cells(chunks[run_heads(chunks)])
        return set(zip(cx.tolist(), cz.tolist()))

    def queued_cells(  # test-only: parity tests pin the order; ticks pop it
        self,
    ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
        """The water and lava queues, head first, as ``(x, y, z)``."""
        return self._water.cells(), self._lava.cells()

    @property
    def pending(self) -> int:
        return len(self._water) + len(self._lava)

    def tick(self, tick_number: int, report: WorkReport) -> int:
        """Process due fluid updates; returns the number of *effective*
        updates (cells that still held fluid when popped — stale queue
        entries are dropped without charging :data:`Op.FLUID` work)."""
        if tick_number % WATER_TICK_INTERVAL != 0:
            return 0
        budget = self.max_updates_per_tick
        water = self._water.pop(budget)
        lava = _NO_KEYS
        if tick_number % LAVA_TICK_INTERVAL == 0:
            lava = self._lava.pop(budget - water.size)
        effective = 0
        if water.size:
            effective += self._update_water_batch(water, report)
        if lava.size:
            effective += self._update_lava_batch(lava, report)
        if effective:
            report.add(Op.FLUID, effective)
        return effective

    # -- batched updates ------------------------------------------------------

    def _gather(self, keys: np.ndarray):
        """Snapshot the 7-cell neighborhood of every popped cell."""
        x, y, z = unpack_cells(keys)
        blocks, auxs = self.world.blocks_and_aux_bulk(
            x[:, None] + _OFF_X, y[:, None] + _OFF_Y, z[:, None] + _OFF_Z
        )
        return x, y, z, blocks, auxs

    def _update_water_batch(self, keys: np.ndarray, report: WorkReport) -> int:
        x, y, z, blocks, auxs = self._gather(keys)
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
            queue=self._water,
        )

    def _update_lava_batch(self, keys: np.ndarray, report: WorkReport) -> int:
        x, y, z, blocks, auxs = self._gather(keys)
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
            queue=self._lava,
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
        queue: _CellQueue,
    ) -> int:
        """Shared spread kernel: classify clear/down/refresh/sideways from
        the snapshot masks, merge the writes, apply, and reschedule."""
        clear = is_flow & ~supported
        active = effective & ~clear
        below_in_bounds = y - 1 >= 0
        down = active & below_in_bounds & below_is_air
        refresh = active & below_in_bounds & ~down & below_refreshable
        next_level = level - 1
        sideways = (active & ~down & ~refresh & (next_level > 0))[:, None]

        wanted = np.empty((x.size, _N_CAND), dtype=np.bool_)
        wanted[:, 0] = clear
        wanted[:, 1] = down
        wanted[:, 2] = refresh
        wanted[:, 3::2] = sideways & (side_b == Block.AIR)
        wanted[:, 4::2] = (
            sideways & side_raisable & (side_a < next_level[:, None])
        )
        cell, cand = np.divmod(wanted.ravel().nonzero()[0], _N_CAND)
        lvl = np.where(
            cand < 3, np.where(cand == 0, 0, max_level), next_level[cell]
        )
        self._apply_writes(
            x[cell] + _CAND_DX[cand],
            y[cell] + _CAND_DY[cand],
            z[cell] + _CAND_DZ[cand],
            lvl,
            _CAND_KIND[cand],
            flow_block=flow_block,
            queue=queue,
            report=report,
        )
        # Cleared cells wake their fluid neighbors.
        if clear.any():
            self.schedule_neighbors_bulk(x[clear], y[clear], z[clear])
        return int(effective.sum())

    def _apply_writes(
        self,
        x: np.ndarray,
        y: np.ndarray,
        z: np.ndarray,
        lvl: np.ndarray,
        kind: np.ndarray,
        flow_block: int,
        queue: _CellQueue,
        report: WorkReport,
    ) -> None:
        """Merge and apply a batch's candidate writes.

        Duplicate targets resolve exactly like the sequential scalar loop:
        the maximum fluid level wins, and any fluid write into a position
        beats that position clearing itself (the neighbor's spread re-fills
        the cell whichever order the queue presented them in).
        """
        if not x.size:
            return
        # Sort by (position, kind, level) so the last entry per position
        # is the winning write: aux raises (kind 2) > block writes (1) >
        # clears (0); within a kind the highest level wins.  The sort
        # orders set_blocks_bulk's input, and so the change log and the
        # queue: keep this key bit for bit.  It wraps silently past |x| or
        # |z| >= 2**23 (cells 2**24 apart share a key), where the queue's
        # pack_cells refuses the cell instead.
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
        queue.push(pack_cells(x[written], y[written], z[written]))

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

