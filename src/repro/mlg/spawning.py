"""Dynamic mob spawning (§2.2.3).

MLGs cannot pre-place spawn points: terrain modification may obstruct them,
so spawn positions are computed dynamically every tick — light level, floor
solidity, and body room are checked against the live world.  Farm constructs
register *spawn platforms* (dark rooms engineered for high spawn rates) that
feed mobs toward a funnel goal where they are killed for drops — the
mechanism behind the Farm world's entity farms (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.constants import MOB_CAP, MOB_SPAWN_LIGHT_MAX
from repro.mlg.entity import EntityKind
from repro.mlg.entity_manager import EntityManager
from repro.mlg.entity_store import KIND_ITEM
from repro.mlg.lighting import LightEngine
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["SpawnEngine", "SpawnPlatform"]

#: Natural spawn attempts per player per tick.
NATURAL_ATTEMPTS_PER_PLAYER = 3
#: Natural spawn radius around players (min, max), in blocks.
NATURAL_RADIUS = (12, 48)
#: Fraction of natural attempts that try passive (daylight) mobs.
PASSIVE_ATTEMPT_FRACTION = 0.3
#: Squared distance to its platform's goal within which a mob is killed.
KILL_RANGE_SQ = 2.5
#: Horizontal catchment radius of the hopper line under a kill chamber.
HOPPER_RADIUS = 6.0


@dataclass
class SpawnPlatform:
    """A farm spawning room: bounded area with boosted spawn attempts.

    ``goal`` is where spawned mobs navigate to (the farm's kill chamber);
    mobs reaching it are killed and drop ``drops_per_kill`` item entities.
    A platform's mobs carry its index in the entity store's ``owner``
    column.  ``goal`` and ``collect_after_ticks`` are read when the
    platform is added to a :class:`SpawnEngine`.
    """

    x0: int
    z0: int
    x1: int
    z1: int
    y: int
    attempts_per_tick: float = 0.5
    local_cap: int = 12
    goal: tuple[int, int, int] | None = None
    drops_per_kill: int = 2
    #: Hoppers under the kill chamber collect drops after this many ticks.
    collect_after_ticks: int = 120
    #: Fractional-attempt accumulator.
    _accumulator: float = field(default=0.0, repr=False)


class SpawnEngine:
    """Executes natural and platform spawning each tick."""

    def __init__(
        self,
        world: World,
        lights: LightEngine,
        entities: EntityManager,
        rng: np.random.Generator,
    ) -> None:
        self.world = world
        self.lights = lights
        self.entities = entities
        self.rng = rng
        self.platforms: list[SpawnPlatform] = []
        #: Kills performed at platform goals (exposed to collectors).
        self.kills_total = 0
        #: Per platform: kill-chamber centre (NaN without a goal, so that
        #: nothing is ever near it) and the hoppers' settle time.
        self._centre = np.empty((0, 3))
        self._settle = np.empty(0, dtype=np.int64)

    def add_platform(self, platform: SpawnPlatform) -> SpawnPlatform:
        self.platforms.append(platform)
        gx, gy, gz = platform.goal or (np.nan,) * 3
        self._centre = np.vstack((self._centre, (gx + 0.5, gy, gz + 0.5)))
        self._settle = np.append(self._settle, platform.collect_after_ticks)
        return platform

    # -- spawn-point validity ----------------------------------------------------

    def can_spawn_at(
        self, x: int, y: int, z: int, passive: bool = False
    ) -> bool:
        """Dynamic spawn-point check: floor, room, and light.

        Hostile mobs need darkness; passive (animal) mobs need daylight —
        both checks read the live lighting state because terrain changes
        move shadows.
        """
        world = self.world
        if not world.is_solid_at(x, y - 1, z):
            return False
        if world.is_solid_at(x, y, z) or world.is_solid_at(x, y + 1, z):
            return False
        if world.get_block(x, y, z) != Block.AIR:
            return False
        light = self.lights.light_at(x, y, z)
        if passive:
            return light >= MOB_SPAWN_LIGHT_MAX
        return light < MOB_SPAWN_LIGHT_MAX

    # -- per-tick ------------------------------------------------------------------

    def tick(
        self,
        player_positions: list[tuple[float, float, float]],
        report: WorkReport,
    ) -> int:
        """Run all spawn attempts for this tick; returns mobs spawned."""
        spawned = self._natural_spawning(player_positions, report)
        if self.platforms:
            spawned += self._platform_spawning(report)
            self._platform_kills(report)
        return spawned

    def _natural_spawning(
        self,
        player_positions: list[tuple[float, float, float]],
        report: WorkReport,
    ) -> int:
        if not player_positions:
            return 0
        mob_count = self.entities.count(EntityKind.MOB)
        spawned = 0
        r_lo, r_hi = NATURAL_RADIUS
        for px, py, pz in player_positions:
            for _ in range(NATURAL_ATTEMPTS_PER_PLAYER):
                report.add(Op.SPAWN_ATTEMPT)
                if mob_count + spawned >= MOB_CAP:
                    continue
                angle = self.rng.random() * 2 * np.pi
                radius = self.rng.uniform(r_lo, r_hi)
                x = int(px + np.cos(angle) * radius)
                z = int(pz + np.sin(angle) * radius)
                ground = self.world.column_height(x, z)
                if ground <= 0:
                    continue
                passive = self.rng.random() < PASSIVE_ATTEMPT_FRACTION
                if self.can_spawn_at(x, ground, z, passive=passive):
                    self.entities.spawn(
                        EntityKind.MOB, x + 0.5, float(ground), z + 0.5
                    )
                    spawned += 1
        return spawned

    def _owned_mobs(self) -> np.ndarray:
        """Slots of the live mobs that belong to a platform."""
        store = self.entities.store
        return np.flatnonzero(store.alive & (store.owner >= 0))

    def _platform_spawning(self, report: WorkReport) -> int:
        spawned = 0
        live = np.bincount(
            self.entities.store.owner[self._owned_mobs()],
            minlength=len(self.platforms),
        ).tolist()
        for index, platform in enumerate(self.platforms):
            platform._accumulator += platform.attempts_per_tick
            attempts = int(platform._accumulator)
            platform._accumulator -= attempts
            for _ in range(attempts):
                report.add(Op.SPAWN_ATTEMPT)
                if live[index] >= platform.local_cap:
                    continue
                x = int(self.rng.integers(platform.x0, platform.x1 + 1))
                z = int(self.rng.integers(platform.z0, platform.z1 + 1))
                if not self.can_spawn_at(x, platform.y, z):
                    continue
                mob = self.entities.spawn(
                    EntityKind.MOB, x + 0.5, float(platform.y), z + 0.5
                )
                mob.goal = platform.goal
                mob.owner = index
                live[index] += 1
                spawned += 1
        return spawned

    def _platform_kills(self, report: WorkReport) -> None:
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
        near = (dx * dx + dy * dy + dz * dz < KILL_RANGE_SQ).nonzero()[0]
        if near.size > 1:
            near = near[np.lexsort((store.eid[mobs[near]], owner[near]))]
        mobs, killer = mobs[near], owner[near]
        # The farm's hopper line absorbs settled drops (keeps the item
        # population bounded, as a real farm's collection system does); an
        # item in reach of several lines goes to the first platform.  This
        # tick's drops are too young for any of them; on a tick when every
        # item is, there is no catchment to test.
        items = store.alive_slots(KIND_ITEM)
        items = items[store.age[items] > settle.min()]
        taker = items
        if items.size:
            dx = store.x[items] - centre[:, :1]
            dz = store.z[items] - centre[:, 2:]
            caught = (store.age[items] > settle[:, None]) & (
                dx * dx + dz * dz <= HOPPER_RADIUS * HOPPER_RADIUS
            )
            taken = caught.any(axis=0).nonzero()[0]
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
