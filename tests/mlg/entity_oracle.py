"""The entity tick's hot passes as they stood before they were rewritten
for numpy's per-call floor, verbatim: the oracle of
``test_entity_tick_parity.py``.

``tick_kernel``, ``apply_water_push``, ``count_collisions``, ``reap`` and
``steer_mobs`` are ``EntityManager`` methods (``reap`` releases slot by
slot through ``release``, once ``EntityStore.release``, and detaches each
handle onto its own ``DetachedSlot``), ``ground_and_loaded_bulk``
is a ``World`` method, ``platform_kills`` a ``SpawnEngine`` method, and
``OraclePathFinder`` is A* with its neighbour generator and heuristic
calls.  (The scalar AI these batched passes replaced is
``test_mob_ai_parity.py``'s oracle; it keeps no navigation columns, so it
cannot stand in for them where the store is compared byte for byte.)
Nothing here is imported by ``src/``.
"""

import heapq

import numpy as np

from repro.mlg.blocks import SOLID_LUT, Block
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import DRAG, GRAVITY_PER_TICK, EntityKind
from repro.mlg.entity_manager import (
    _ITEM_DESPAWN_TICKS,
    GROUND_FRICTION,
    NEIGHBOR_FACTOR,
    PATH_SPEED,
    REPATH_INTERVAL,
    WANDER_INTERVAL,
    WANDER_SPEED,
    WATER_BUOYANCY_VY,
    WATER_PUSH,
    WAYPOINT_REACH,
)
from repro.mlg.entity_store import (
    FIELDS,
    KIND_FREE,
    KIND_ITEM,
    KIND_MOB,
    KIND_TNT,
)
from repro.mlg.pathfinding import (
    _WATER,
    WINDOW_MARGIN,
    WINDOW_REACH,
    PathFinder,
    PathResult,
)
from repro.mlg.spawning import HOPPER_RADIUS, KILL_RANGE_SQ
from repro.mlg.workreport import Op

# -- EntityManager ------------------------------------------------------------


def steer_mobs(self, report) -> None:
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
    for i in np.flatnonzero(repath).tolist():
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
        arrived = np.flatnonzero(walking)[dist < WAYPOINT_REACH]
        left[arrived] -= 1
        for slot, n in zip(mobs[arrived].tolist(), left[arrived].tolist()):
            self._aim(slot, n)
        store.path_left[mobs] = left
    wander = mobs[~walking & ~has_goal & (phase % WANDER_INTERVAL == 0)]
    if wander.size:
        angle = self.rng.random(wander.size) * 2 * np.pi
        store.vx[wander] = np.cos(angle) * WANDER_SPEED
        store.vz[wander] = np.sin(angle) * WANDER_SPEED


class DetachedSlot:
    """Frozen single-slot copy of a reaped entity's final state.

    Mimics the store's array-attribute shape (``store.x[slot]``) with
    plain one-element lists, so :class:`Entity` properties need no branch.
    """

    __slots__ = tuple(name for name, _ in FIELDS)

    def __init__(self, store, slot: int) -> None:
        for name in self.__slots__:
            setattr(self, name, [getattr(store, name)[slot]])
        self.alive = [False]


def release(store, slot: int) -> None:
    """``EntityStore.release``: return one slot to the free list."""
    store.kind[slot] = KIND_FREE
    store.alive[slot] = False
    store.eid[slot] = 0
    store.live_count -= 1
    store._free.append(slot)


def reap(self) -> None:
    store = self.store
    dead = np.flatnonzero((store.eid != 0) & ~store.alive)
    for slot in dead.tolist():
        handle = self._handles[slot]
        handle._store, handle._slot = DetachedSlot(store, slot), 0
        del self._entities[handle.eid]
        self._handles[slot] = None
        release(store, slot)
    if store.should_compact():
        old_slots = store.compact()
        handles = [None] * store.capacity
        for new_slot, old_slot in enumerate(old_slots):
            handle = self._handles[int(old_slot)]
            handle._slot = new_slot
            handles[new_slot] = handle
        self._handles = handles


def tick_kernel(self, report):
    """One vectorized physics pass over every live physical entity.

    Returns their slots, which of them are items, and their packed
    cell keys after the move, for the collision and merge passes.
    Each state column is gathered once, worked on densely and
    scattered back once.
    """
    store = self.store
    kind = store.kind
    phys = np.flatnonzero(
        store.alive & (kind >= KIND_ITEM) & (kind <= KIND_TNT)
    )
    kinds = kind[phys]
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
        store.age[phys[kinds != KIND_MOB]] += 1
        item_slots = phys[is_item]
        expired = item_slots[store.age[item_slots] > _ITEM_DESPAWN_TICKS]
        if expired.size:
            self.remove_slots(expired)
            keep = store.alive[phys]
            phys, kinds, is_item = phys[keep], kinds[keep], is_item[keep]
    if phys.size == 0:
        return phys, is_item, phys

    x, y, z = store.x[phys], store.y[phys], store.z[phys]
    vx, vy, vz = store.vx[phys], store.vy[phys], store.vz[phys]
    # Water-stream transport applies at every population, not just
    # below some threshold: farms rely on it as their collection belt.
    if self.fluid_flow is not None and n_items:
        self._apply_water_push(np.flatnonzero(is_item), x, y, z, vx, vy, vz)

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
    fall = float(np.max(np.floor(y) - np.floor(new_y)))
    depth = min(12, int(min(max(fall, 0.0), 10.0)) + 2)
    ground, loaded = self.world.ground_and_loaded_bulk(
        new_x, y, new_z, max_scan=depth
    )
    grounded = new_y <= ground
    new_y = np.where(grounded, ground, new_y)
    vy[grounded] = 0.0
    friction = np.where(grounded, GROUND_FRICTION, 1.0)
    vx *= friction
    vz *= friction
    store.moved[phys] = (
        (np.abs(new_x - x) > 1e-3)
        | (np.abs(new_y - y) > 1e-3)
        | (np.abs(new_z - z) > 1e-3)
    )
    # Entities do not tick in unloaded chunks; keep mobs inside the
    # loaded world instead of letting them wander off the edge.
    escaped = ~loaded & (kinds == KIND_MOB)
    if escaped.any():
        new_x[escaped] = x[escaped]
        new_z[escaped] = z[escaped]
        vx[escaped] = -vx[escaped]
        vz[escaped] = -vz[escaped]
    store.x[phys], store.y[phys], store.z[phys] = new_x, new_y, new_z
    store.vx[phys], store.vy[phys], store.vz[phys] = vx, vy, vz
    return phys, is_item, self._cell_keys(new_x, new_y, new_z)


def apply_water_push(self, items, x, y, z, vx, vy, vz) -> None:
    """Flow push, in place, for the ``items`` (indices into the dense
    kernel columns) that stand in water."""
    bx = np.floor(x[items]).astype(np.int64)
    by = np.floor(y[items]).astype(np.int64)
    bz = np.floor(z[items]).astype(np.int64)
    blocks = self.world.blocks_bulk(bx, by, bz)
    wet = np.flatnonzero(
        (blocks == Block.WATER_FLOW) | (blocks == Block.WATER_SOURCE)
    )
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


def count_collisions(self, report, phys, keys) -> None:
    """Count collision-pair checks via spatial-hash occupancy.

    Entities in the same (and, via ``NEIGHBOR_FACTOR``, adjacent) cells
    are checked pairwise in a real engine; the *number of checks* is the
    work, so that is what we count.  Crowded cells also get a
    separation impulse so dense swarms spread out physically.
    """
    if phys.size < 2:
        return
    store = self.store
    _, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    pairs = float((counts * (counts - 1) / 2).sum() * NEIGHBOR_FACTOR)
    if pairs:
        report.add(Op.COLLISION_PAIR, pairs)
    crowded = counts[inverse] > 2
    if crowded.any():
        crowded_slots = phys[crowded]
        jitter = self.rng.uniform(
            -0.04, 0.04, size=(crowded_slots.size, 2)
        )
        store.vx[crowded_slots] += jitter[:, 0]
        store.vz[crowded_slots] += jitter[:, 1]


# -- World --------------------------------------------------------------------


def ground_and_loaded_bulk(self, xs, ys, zs, max_scan=12):
    """Vectorized downward ground scan for entity physics, and whether
    each position's chunk is loaded (the same column lookup).

    For each position: the top surface (``y + 1``) of the first solid
    block at or below the entity, scanning up to ``max_scan`` blocks
    down — the bulk equivalent of the scalar ``_ground_below``, NOT a
    heightmap-top query: entities under a roof must ground against the
    floor beneath them, not the structure above.  Positions with no
    solid block in range fall back to ``max(0, start - max_scan)``.
    """
    xs = np.floor(np.asarray(xs, dtype=np.float64)).astype(np.int64)
    zs = np.floor(np.asarray(zs, dtype=np.float64)).astype(np.int64)
    start = np.minimum(
        np.floor(np.asarray(ys, dtype=np.float64)).astype(np.int64),
        WORLD_HEIGHT - 1,
    )
    scan_y = start[:, None] - np.arange(max_scan)
    slots, loaded = self._locate(xs, zs)
    columns = self._arena.gather(
        "blocks", slots[:, None], np.clip(scan_y, 0, WORLD_HEIGHT - 1),
        (xs & 15)[:, None], (zs & 15)[:, None],
    )
    solid = SOLID_LUT[columns] & (scan_y >= 0) & loaded[:, None]
    first = solid.argmax(axis=1)
    ground = np.where(
        solid.any(axis=1),
        start - first + 1,
        np.maximum(0, start - max_scan),
    ).astype(np.float64)
    return ground, loaded


# -- PathFinder ---------------------------------------------------------------


class OraclePathFinder(PathFinder):
    def _window(self, start, goal):
        """:meth:`is_walkable` of every cell around one search, gathered
        once: ``(flags, x0, y0, z0, nx, nz, ny)``, flags in x, z, y order."""
        lo = [max(min(a, b), a - WINDOW_REACH) for a, b in zip(start, goal)]
        hi = [min(max(a, b), a + WINDOW_REACH) for a, b in zip(start, goal)]
        x0, x1 = lo[0] - WINDOW_MARGIN, hi[0] + WINDOW_MARGIN
        z0, z1 = lo[2] - WINDOW_MARGIN, hi[2] + WINDOW_MARGIN
        # A step reaches y+1 and y-3; a cell needs its floor and headroom.
        y0, y1 = lo[1] - 4, hi[1] + 2
        blocks = self.world.blocks_cuboid(x0, y0, z0, x1, y1, z1)
        solid = SOLID_LUT[blocks]
        floor = solid | (blocks == _WATER[0]) | (blocks == _WATER[1])
        walkable = floor[:, :, :-2] & ~solid[:, :, 1:-1] & ~solid[:, :, 2:]
        return walkable.tobytes(), x0, y0 + 1, z0, *walkable.shape

    def _neighbors(self, x, y, z, window):
        flags, x0, y0, z0, wx, wz, wy = window
        for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, nz = x + dx, z + dz
            inside = 0 <= nx - x0 < wx and 0 <= nz - z0 < wz
            column = ((nx - x0) * wz + nz - z0) * wy - y0
            # Same level, step up, or step/fall down (up to 3).
            for dy in (0, 1, -1, -2, -3):
                ny = y + dy
                if ny < 1:
                    continue
                if (
                    flags[column + ny]
                    if inside and 0 <= ny - y0 < wy
                    else self.is_walkable(nx, ny, nz)
                ):
                    yield nx, ny, nz
                    break

    def find_path(self, start, goal, report=None):
        """A* from ``start`` to ``goal`` with a node-expansion budget.

        Always records the expansion count (even on failure) — failed
        searches still cost CPU, and in MLGs they are common because the
        terrain changes under the navigator.
        """
        if not self.is_walkable(*start):
            if report is not None:
                report.add(Op.PATHFIND_NODE, 1)
            return PathResult([], 1, False)
        window = self._window(start, goal)
        open_heap = []
        heapq.heappush(open_heap, (self._heuristic(start, goal), 0, start))
        came_from = {}
        g_score = {start: 0.0}
        expanded = 0
        counter = 0
        found = False
        current = start
        while open_heap and expanded < self.max_expansions:
            _, _, current = heapq.heappop(open_heap)
            expanded += 1
            if current == goal:
                found = True
                break
            cg = g_score[current]
            for neighbor in self._neighbors(*current, window):
                tentative = cg + 1.0 + 0.4 * abs(neighbor[1] - current[1])
                if tentative < g_score.get(neighbor, float("inf")):
                    g_score[neighbor] = tentative
                    came_from[neighbor] = current
                    counter += 1
                    heapq.heappush(
                        open_heap,
                        (
                            tentative + self._heuristic(neighbor, goal),
                            counter,
                            neighbor,
                        ),
                    )
        if report is not None:
            report.add(Op.PATHFIND_NODE, expanded)
        if not found:
            return PathResult([], expanded, False)
        path = [current]
        while current in came_from:
            current = came_from[current]
            path.append(current)
        path.reverse()
        return PathResult(path, expanded, True)


# -- SpawnEngine --------------------------------------------------------------


def platform_kills(self, report) -> None:
    """Kill mobs at their platform's goal; drop and later collect items.

    One distance test over every owned mob and one ``[platforms x
    items]`` catchment mask decide what happens; Python runs only for
    the kills and the absorbed items, platform by platform (kills in
    spawn order, then that platform's hoppers).
    """
    entities, store = self.entities, self.entities.store
    centre, settle = self._centre, self._settle
    mobs = self._owned_mobs()
    owner = store.owner[mobs]
    goal = centre[owner]
    dx = store.x[mobs] - goal[:, 0]
    dy = store.y[mobs] - goal[:, 1]
    dz = store.z[mobs] - goal[:, 2]
    near = np.flatnonzero(dx * dx + dy * dy + dz * dz < KILL_RANGE_SQ)
    near = near[np.lexsort((store.eid[mobs[near]], owner[near]))]
    mobs, killer = mobs[near], owner[near]
    # The farm's hopper line absorbs settled drops (keeps the item
    # population bounded, as a real farm's collection system does); an
    # item in reach of several lines goes to the first platform.  This
    # tick's drops are too young for any of them.
    items = store.alive_slots(KIND_ITEM)
    items = items[store.age[items] > settle.min()]
    dx = store.x[items] - centre[:, :1]
    dz = store.z[items] - centre[:, 2:]
    caught = (store.age[items] > settle[:, None]) & (
        dx * dx + dz * dz <= HOPPER_RADIUS * HOPPER_RADIUS
    )
    taken = np.flatnonzero(caught.any(axis=0))
    items, taker = items[taken], caught.argmax(axis=0)[taken]
    for index in sorted({*killer.tolist(), *taker.tolist()}):
        platform = self.platforms[index]
        gx, gy, gz = platform.goal
        killed = mobs[killer == index]
        entities.remove_slots(killed)
        self.kills_total += killed.size
        for _ in range(killed.size * platform.drops_per_kill):
            entities.spawn(
                EntityKind.ITEM,
                gx + 0.5 + float(self.rng.uniform(-0.3, 0.3)),
                float(gy),
                gz + 0.5 + float(self.rng.uniform(-0.3, 0.3)),
                vy=0.1,
            )
        entities.remove_slots(items[taker == index])
    if items.size:
        entities.collected_items += items.size
        report.add(Op.BLOCK_UPDATE, 8 * items.size)
