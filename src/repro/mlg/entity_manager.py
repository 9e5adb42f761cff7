"""Entity simulation (§2.2.3) — movement, collision, AI, merging, despawn.

Entity state lives in a struct-of-arrays :class:`EntityStore`; the
:class:`Entity` objects handed to callers are lightweight views over one
slot.  Every tick — whether one dropped item or a ten-thousand-entity TNT
chain — runs the SAME vectorized pipeline:

    age → despawn → water-push → integrate → ground-resolve →
    chunk-containment → collision-count

There is no scalar/vectorized split and no population threshold: the
per-tick work the benchmark measures is computed by one physics model at
every scale, so entity-count sweeps cannot inject implementation
discontinuities into the variability metrics.  Ground resolution scans
*below* each entity (the bulk equivalent of a downward ray), never the
heightmap top, so items inside enclosed farms stay inside.

Mob AI runs ahead of the kernel as one masked pass over the store's
navigation columns (goal, waypoint, ``path_left``): every mob on a path is
steered by the same array expressions, and Python runs per mob only for an
A* search (under one a tick on the Farm world) or a reached waypoint.  The
per-mob scalar AI it replaced lives on as the oracle of
``tests/mlg/test_mob_ai_parity.py``.  Mob *physics* goes through the same
kernel as everything else.

The passes work on a few hundred entities, where numpy's Python-level
wrappers cost more than the C work they call.  So a per-tick pass calls
ufuncs and array methods (``np.minimum``, ``a.nonzero()``, ``a.max()``),
never the wrappers over them (``np.clip``, ``np.flatnonzero``, ``np.max``),
and updates fresh temporaries in place.  Collision cells are counted as
run lengths of the sorted keys, and the entities that ``remove`` marks
dead are listed for the reap instead of found by a scan; the reap
releases them together and freezes their handles onto one copy of their
rows.  Each pass does
the float operations, and draws the random numbers, of the code it
replaced, which ``tests/mlg/entity_oracle.py`` keeps.

PaperMC's entity-handler optimization (paper Appendix A) appears here as
``merge_items`` (nearby item stacks merge into one entity) and is enabled
per variant profile.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.constants import ITEM_DESPAWN_S, TICK_RATE_HZ
from repro.mlg.entity import DRAG, GRAVITY_PER_TICK, Entity
from repro.mlg.entity_store import (
    KIND_CODE,
    KIND_ITEM,
    KIND_MOB,
    KIND_TNT,
    EntityStore,
)
from repro.mlg.pathfinding import PathFinder
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["EntityManager"]

#: Spatial-hash cell edge, in blocks.
CELL_SIZE = 1.0
#: Neighbor-cell factor approximating cross-cell collision checks.
NEIGHBOR_FACTOR = 3.0
#: Mobs re-path every this many ticks (staggered by entity id).
REPATH_INTERVAL = 40
#: Goal-less mobs get a wander impulse every this many ticks (same stagger).
WANDER_INTERVAL = 60
#: Walking speed along a path / of a wander impulse, in blocks per tick.
PATH_SPEED = 0.15
WANDER_SPEED = 0.08
#: A waypoint counts as reached within this horizontal distance.
WAYPOINT_REACH = 0.4
#: Horizontal ground friction applied to grounded entities.
GROUND_FRICTION = 0.6
#: Water-flow push strength per tick (blocks/tick per unit flow).
WATER_PUSH = 0.014
#: Buoyancy floor: items in water never sink faster than this.
WATER_BUOYANCY_VY = -0.02

_ITEM_DESPAWN_TICKS = int(ITEM_DESPAWN_S * TICK_RATE_HZ)
#: Which ``kind`` codes the physics kernel moves, indexed by code.
_PHYSICAL = np.zeros(256, np.bool_)
_PHYSICAL[[KIND_ITEM, KIND_MOB, KIND_TNT]] = True


class EntityManager:
    """Owns and updates all non-player-controlled entities."""

    def __init__(
        self,
        world: World,
        rng: np.random.Generator,
        merge_items: bool = False,
        fluid_flow: Callable[[int, int, int], tuple[float, float]] | None = None,
    ) -> None:
        self.world = world
        self.rng = rng
        self.merge_items = merge_items
        self.fluid_flow = fluid_flow
        self.pathfinder = PathFinder(world)
        self.store = EntityStore()
        #: Slot → handle for the store's current layout.
        self._handles: list[Entity | None] = [None] * self.store.capacity
        self._entities: dict[int, Entity] = {}
        self._next_eid = 1
        #: Entities that died this tick (for destroy packets).
        self.removed_this_tick: list[Entity] = []
        #: Entities spawned this tick (for spawn packets).
        self.spawned_this_tick: list[Entity] = []
        #: Items collected by hoppers/kill zones this tick.
        self.collected_items = 0
        #: Slots :meth:`remove` marked dead since the last reap.  Not
        #: ``removed_this_tick``: spawning and workload hooks remove after
        #: the reap, and ``begin_tick`` clears that list before the next.
        self._dying: list[int] = []

    # -- membership -----------------------------------------------------------

    def spawn(
        self,
        kind: str,
        x: float,
        y: float,
        z: float,
        vx: float = 0.0,
        vy: float = 0.0,
        vz: float = 0.0,
        fuse_ticks: int = -1,
        stack_count: int = 1,
    ) -> Entity:
        """Create and register a new entity."""
        eid = self._next_eid
        self._next_eid += 1
        slot = self.store.allocate(
            eid, KIND_CODE[kind], x, y, z, vx, vy, vz, fuse_ticks, stack_count
        )
        if len(self._handles) < self.store.capacity:
            self._handles.extend(
                [None] * (self.store.capacity - len(self._handles))
            )
        entity = Entity(self.store, slot, eid)
        self._handles[slot] = entity
        self._entities[eid] = entity
        self.spawned_this_tick.append(entity)
        return entity

    def remove(self, entity: Entity) -> None:
        """Mark an entity dead; it is reaped at the end of the tick."""
        if entity.alive:
            entity.alive = False
            self.removed_this_tick.append(entity)
            self._dying.append(entity._slot)

    def remove_slots(self, slots: np.ndarray) -> None:
        """:meth:`remove` the entities in ``slots``, in the order given."""
        for slot in slots.tolist():
            self.remove(self._handles[slot])

    def slots_of(self, entities: Iterable[Entity]) -> np.ndarray:
        """Store slots of not-yet-reaped ``entities``, in the order given."""
        return np.array([e._slot for e in entities], dtype=np.int64)

    def get(self, eid: int) -> Entity | None:
        return self._entities.get(eid)

    def count(self, kind: str | None = None) -> int:
        """Live entity count — an array reduction over the store."""
        return self.store.count(None if kind is None else KIND_CODE[kind])

    def occupied_chunks(self) -> set[tuple[int, int]]:
        """Chunks containing live entities (anchors for eviction)."""
        store = self.store
        slots = np.flatnonzero(store.alive)
        if slots.size == 0:
            return set()
        cxs = np.floor(store.x[slots]).astype(np.int64) >> 4
        czs = np.floor(store.z[slots]).astype(np.int64) >> 4
        return set(zip(cxs.tolist(), czs.tolist()))

    def moved_count(self) -> int:
        """Live entities that moved this tick — an array reduction."""
        return self.store.moved_count()

    def entities_of(  # test-only: handles by kind; the tick reads slots
        self, kind: str
    ) -> list[Entity]:
        """Live handles of ``kind`` in slot order (dead, unreaped ones
        skipped)."""
        slots = self.store.alive_slots(KIND_CODE[kind])
        return [self._handles[slot] for slot in slots.tolist()]

    def entities_near(
        self, x: float, y: float, z: float, radius: float
    ) -> list[Entity]:
        store = self.store
        slots = store.alive_slots()
        if slots.size == 0:
            return []
        dx = store.x[slots] - x
        dy = store.y[slots] - y
        dz = store.z[slots] - z
        hits = slots[dx * dx + dy * dy + dz * dz <= radius * radius]
        return [self._handles[int(slot)] for slot in hits]

    def absorb_items(
        self,
        x: float,
        z: float,
        radius: float,
        min_age_ticks: int = 0,
        limit: int | None = None,
    ) -> int:
        """Collect settled items within a horizontal radius (hopper lines).

        Removes up to ``limit`` item entities older than ``min_age_ticks``
        whose horizontal distance to ``(x, z)`` is within ``radius``, counts
        them into :attr:`collected_items`, and returns how many were taken.
        Horizontal catchment only: knockback can bounce drops around, and
        the hoppers below still catch them.
        """
        store = self.store
        slots = store.alive_slots(KIND_ITEM)
        if slots.size == 0:
            return 0
        dx = store.x[slots] - x
        dz = store.z[slots] - z
        hits = slots[
            (store.age[slots] > min_age_ticks)
            & (dx * dx + dz * dz <= radius * radius)
        ]
        if limit is not None and hits.size > limit:
            # Oldest first, so a binding limit cannot starve long-settled
            # items until they despawn uncollected (slot order after
            # free-list recycling favours the newest items).
            oldest = np.argsort(-store.age[hits], kind="stable")
            hits = hits[oldest[:limit]]
        self.remove_slots(hits)
        self.collected_items += int(hits.size)
        return int(hits.size)

    def expire_fuses(self) -> list[Entity]:
        """Decrement every live TNT fuse (array op); return expired handles."""
        store = self.store
        slots = store.alive_slots(KIND_TNT)
        if slots.size == 0:
            return []
        store.fuse[slots] -= 1
        expired = slots[store.fuse[slots] <= 0]
        return [self._handles[int(slot)] for slot in expired]

    # -- per-tick update --------------------------------------------------------

    def begin_tick(self) -> None:
        self.removed_this_tick = []
        self.spawned_this_tick = []
        self.collected_items = 0

    def tick(self, report: WorkReport) -> None:
        """Advance all physical entities by one game tick."""
        self.store.moved[:] = False
        self._steer_mobs(report)
        phys, is_item, keys = self._tick_kernel(report)
        self._count_collisions(report, phys, keys)
        if self.merge_items:
            self._merge_item_stacks(phys[is_item], keys[is_item])
        self._reap()

    def _reap(self) -> None:
        """Release the slots of the entities removed since the last reap,
        in ascending slot order (which fixes the free list's order), and
        repoint their handles at one frozen copy of their final state."""
        store, dying = self.store, self._dying
        if dying:
            dying.sort()
            final = store.release_many(np.array(dying))
            handles, entities = self._handles, self._entities
            for row, slot in enumerate(dying):
                handle = handles[slot]
                handle._store, handle._slot = final, row
                del entities[handle.eid]
                handles[slot] = None
            dying.clear()
        if store.should_compact():
            old_slots = store.compact()
            handles: list[Entity | None] = [None] * store.capacity
            for new_slot, old_slot in enumerate(old_slots):
                handle = self._handles[int(old_slot)]
                handle._slot = new_slot
                handles[new_slot] = handle
            self._handles = handles

    # -- mob AI ------------------------------------------------------------------

    def _steer_mobs(self, report: WorkReport) -> None:
        """Mob AI as one masked pass: repath, steer, advance, wander.

        Only velocity decisions happen here — integration, grounding, and
        chunk containment run in the shared kernel with everything else.
        A mob reads nothing another mob writes, so the pass equals the
        per-mob loop in slot order; the wander draws are one batch, which
        consumes the generator exactly like one draw per mob.
        """
        store = self.store
        mobs = store.alive_slots(KIND_MOB)
        if mobs.size == 0:
            return
        report.add(Op.ENTITY_UPDATE, mobs.size)
        age = store.age[mobs] + 1
        store.age[mobs] = age
        phase = age + store.eid[mobs]
        has_goal = store.has_goal[mobs]
        left = store.path_left[mobs]
        repath = has_goal & (left == 0) & (phase % REPATH_INTERVAL == 0)
        for i in repath.nonzero()[0].tolist():
            slot = int(mobs[i])
            mob = self._handles[slot]
            mob.path = self.pathfinder.find_path(
                mob.block_pos, mob.goal, report
            ).path
            left[i] = len(mob.path)
            self._aim(slot, len(mob.path))
        walking = left > 0
        at = mobs[walking]
        if at.size:
            dx = store.way_x[at] - store.x[at]
            dz = store.way_z[at] - store.z[at]
            # float_power is libm pow, as the scalar AI's ``** 0.5`` was;
            # sqrt rounds one in a thousand of these differently.
            dist = np.maximum(1e-6, np.float_power(dx * dx + dz * dz, 0.5))
            store.vx[at] = dx / dist * PATH_SPEED
            store.vz[at] = dz / dist * PATH_SPEED
            arrived = walking.nonzero()[0][dist < WAYPOINT_REACH]
            left[arrived] -= 1
            for slot, n in zip(mobs[arrived].tolist(), left[arrived].tolist()):
                self._aim(slot, n)
            store.path_left[mobs] = left
        wander = mobs[~(walking | has_goal) & (phase % WANDER_INTERVAL == 0)]
        if wander.size:
            angle = self.rng.random(wander.size) * 2 * np.pi
            store.vx[wander] = np.cos(angle) * WANDER_SPEED
            store.vz[wander] = np.sin(angle) * WANDER_SPEED

    def _aim(self, slot: int, left: int) -> None:
        """Point a mob at the centre of its next waypoint, ``left`` cells
        from the end of its path (0: the path is walked, nothing to aim at)."""
        if left:
            x, _, z = self._handles[slot].path[-left]
            self.store.way_x[slot] = x + 0.5
            self.store.way_z[slot] = z + 0.5

    # -- the unified physics kernel ----------------------------------------------

    def _tick_kernel(
        self, report: WorkReport
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One vectorized physics pass over every live physical entity.

        Returns their slots, which of them are items, and their packed
        cell keys after the move, for the collision and merge passes.
        Each state column is gathered once, worked on densely and
        scattered back once.
        """
        store = self.store
        phys = (store.alive & _PHYSICAL.take(store.kind)).nonzero()[0]
        kinds = store.kind[phys]
        is_item = kinds == KIND_ITEM
        n_items = int(np.count_nonzero(is_item))
        n_tnt = int(np.count_nonzero(kinds == KIND_TNT))
        if n_items:
            report.add(Op.ITEM_UPDATE, n_items)
        if n_tnt:
            report.add(Op.TNT_UPDATE, n_tnt)

        # Age items and TNT (mobs age in the AI pass), then despawn expired
        # items BEFORE they move — despawn ordering is part of the physics
        # contract, so it happens in exactly one place.
        if n_items or n_tnt:
            age = store.age[phys]
            age += kinds != KIND_MOB
            store.age[phys] = age
            expired = age > _ITEM_DESPAWN_TICKS
            expired &= is_item
            if expired.any():
                self.remove_slots(phys[expired])
                keep = store.alive[phys]
                phys, kinds, is_item = phys[keep], kinds[keep], is_item[keep]
        if phys.size == 0:
            return phys, is_item, phys

        x, y, z = store.x[phys], store.y[phys], store.z[phys]
        vx, vy, vz = store.vx[phys], store.vy[phys], store.vz[phys]
        # Water-stream transport applies at every population, not just
        # below some threshold: farms rely on it as their collection belt.
        if self.fluid_flow is not None and n_items:
            self._apply_water_push(is_item.nonzero()[0], x, y, z, vx, vy, vz)

        # Integrate: same float-op order as the historical scalar path, so
        # a lone item and one item among thousands trace identical paths.
        vy -= GRAVITY_PER_TICK
        vx *= DRAG
        vy *= DRAG
        vz *= DRAG
        new_x = x + vx
        new_z = z + vz
        new_y = y + vy
        # Ground = first solid surface BELOW the entity (downward scan),
        # never the column's heightmap top: under a roof the two disagree.
        # Scan depth: only blocks an entity can cross this tick can change
        # the grounded decision or the clamp target, so the batch's deepest
        # fall (+2 margin) bounds the scan exactly — a deeper solid block
        # would sit strictly below every entity's new_y, and the phantom
        # fallback floor only engages past a 12-block/tick fall.
        fall = np.floor(y)
        fall -= np.floor(new_y)
        depth = min(12, int(min(max(float(fall.max()), 0.0), 10.0)) + 2)
        ground, loaded = self.world.ground_and_loaded_bulk(
            new_x, y, new_z, max_scan=depth
        )
        grounded = new_y <= ground
        np.copyto(new_y, ground, where=grounded)
        np.copyto(vy, 0.0, where=grounded)
        friction = np.where(grounded, GROUND_FRICTION, 1.0)
        vx *= friction
        vz *= friction
        moved = np.abs(new_x - x) > 1e-3
        moved |= np.abs(new_y - y) > 1e-3
        moved |= np.abs(new_z - z) > 1e-3
        store.moved[phys] = moved
        # Entities do not tick in unloaded chunks; keep mobs inside the
        # loaded world instead of letting them wander off the edge.
        if not loaded.all():
            escaped = ~loaded & (kinds == KIND_MOB)
            new_x[escaped] = x[escaped]
            new_z[escaped] = z[escaped]
            vx[escaped] = -vx[escaped]
            vz[escaped] = -vz[escaped]
        store.x[phys], store.y[phys], store.z[phys] = new_x, new_y, new_z
        store.vx[phys], store.vy[phys], store.vz[phys] = vx, vy, vz
        return phys, is_item, self._cell_keys(new_x, new_y, new_z)

    def _apply_water_push(self, items, x, y, z, vx, vy, vz) -> None:
        """Flow push, in place, for the ``items`` (indices into the dense
        kernel columns) that stand in water."""
        bx = np.floor(x[items]).astype(np.int64)
        by = np.floor(y[items]).astype(np.int64)
        bz = np.floor(z[items]).astype(np.int64)
        blocks = self.world.blocks_bulk(bx, by, bz)
        wet = blocks == Block.WATER_FLOW
        wet |= blocks == Block.WATER_SOURCE
        wet = wet.nonzero()[0]
        if wet.size == 0:
            return
        # One flow lookup per distinct water cell; streams funnel many
        # items through few cells.
        cells = list(zip(bx[wet].tolist(), by[wet].tolist(), bz[wet].tolist()))
        flow_of = {cell: self.fluid_flow(*cell) for cell in dict.fromkeys(cells)}
        flow = np.array([flow_of[cell] for cell in cells])
        wet = items[wet]
        vx[wet] += flow[:, 0] * WATER_PUSH
        vz[wet] += flow[:, 1] * WATER_PUSH
        vy[wet] = np.maximum(vy[wet], WATER_BUOYANCY_VY)

    # -- collision accounting -------------------------------------------------------

    @staticmethod
    def _cell_keys(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Packed spatial-hash keys for the given positions.

        Cell coordinates use ``floor``, not ``int()`` truncation: truncation
        collapses the two cells straddling each axis at negative coordinates
        (x ∈ (-1, 1) would alias into one cell), inflating pair counts and
        over-merging stacks near the origin.
        """
        inv = 1.0 / CELL_SIZE
        cx = np.floor(x * inv).astype(np.int64)
        cy = np.floor(y * inv).astype(np.int64)
        cz = np.floor(z * inv).astype(np.int64)
        return (
            ((cx & 0x1FFFFF) << 42)
            | ((cy & 0x1FFFFF) << 21)
            | (cz & 0x1FFFFF)
        )

    def _count_collisions(
        self, report: WorkReport, phys: np.ndarray, keys: np.ndarray
    ) -> None:
        """Count collision-pair checks via spatial-hash occupancy.

        Entities in the same (and, via ``NEIGHBOR_FACTOR``, adjacent) cells
        are checked pairwise in a real engine; the *number of checks* is the
        work, so that is what we count.  Crowded cells also get a
        separation impulse so dense swarms spread out physically.

        Occupancies are the run lengths of the sorted keys, so they come
        in ascending key order, the order the pair total is summed in.
        """
        n = phys.size
        if n < 2:
            return
        order = keys.argsort()
        ordered = keys[order]
        edges = np.empty(n + 1, np.bool_)
        edges[0] = edges[n] = True
        np.not_equal(ordered[1:], ordered[:-1], out=edges[1:n])
        starts = edges.nonzero()[0]
        counts = starts[1:] - starts[:-1]
        pairs = float((counts * (counts - 1) / 2).sum() * NEIGHBOR_FACTOR)
        if pairs:
            report.add(Op.COLLISION_PAIR, pairs)
        crowded_cells = counts > 2
        if crowded_cells.any():
            # Each entity's cell flag, in sorted order, back in slot order.
            crowded = np.empty(n, np.bool_)
            crowded[order] = crowded_cells.repeat(counts)
            crowded_slots = phys[crowded]
            jitter = self.rng.uniform(
                -0.04, 0.04, size=(crowded_slots.size, 2)
            )
            store = self.store
            store.vx[crowded_slots] += jitter[:, 0]
            store.vz[crowded_slots] += jitter[:, 1]

    # -- PaperMC item merging -----------------------------------------------------

    def _merge_item_stacks(self, items: np.ndarray, keys: np.ndarray) -> None:
        """Merge co-located item entities into stacks (PaperMC behaviour):
        the first item of a cell in slot order keeps the cell's stack."""
        if items.size < 2:
            return
        _, first, cell_of = np.unique(
            keys, return_index=True, return_inverse=True
        )
        keepers = items[first[cell_of]]
        merged = keepers != items
        if merged.any():
            stack = self.store.stack
            np.add.at(stack, keepers[merged], stack[items[merged]])
            self.remove_slots(items[merged])
