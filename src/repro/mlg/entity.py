"""Entity model (§2.2.3): anything in the world that is not terrain.

An :class:`Entity` is a lightweight *handle* over one slot of the
:class:`repro.mlg.entity_store.EntityStore` struct-of-arrays — attribute
access reads and writes the backing arrays, so scalar call sites (mob AI,
TNT priming, workload hooks) and the vectorized physics kernel always see
the same state.  Kinds:

* ``ITEM`` — dropped resources; transported by water flows, merged into
  stacks by PaperMC's optimization, despawn after five minutes;
* ``MOB`` — NPCs with wander/goal AI that pathfind over live terrain
  (goal, waypoint and platform owner are store columns too);
* ``TNT`` — primed explosives with a fuse (see :mod:`repro.mlg.tnt`);
* ``PLAYER`` — the server-side avatar of a connected client.

When an entity is reaped its slot is recycled; the handle is repointed at
its row of the reap's :class:`~repro.mlg.entity_store.FrozenRows`, one
copy of every entity reaped together, so stale references (a workload
hook's captured item, a test's local variable) keep reading the dead
entity's last values instead of whatever entity reuses the slot.
"""

from __future__ import annotations

from math import floor

from repro.mlg.entity_store import KIND_NAME, EntityStore, FrozenRows

__all__ = ["EntityKind", "Entity"]

#: Gravity in blocks per tick squared (Minecraft-like).
GRAVITY_PER_TICK = 0.08
#: Horizontal/vertical velocity damping per tick.
DRAG = 0.98


class EntityKind:
    ITEM = "item"
    MOB = "mob"
    TNT = "tnt"
    PLAYER = "player"

    PHYSICAL = (ITEM, MOB, TNT)


class Entity:
    """Handle over one store slot (or, once reaped, one row of a frozen
    copy); positions in blocks, velocities in blocks/tick.  Created only by
    the entity manager."""

    __slots__ = ("_store", "_slot", "eid", "path")

    def __init__(self, store: EntityStore, slot: int, eid: int) -> None:
        self._store: EntityStore | FrozenRows = store
        self._slot = slot
        self.eid = eid
        #: The mob's current A* path; its last ``path_left`` cells (a store
        #: column) are still to be walked.
        self.path: list[tuple[int, int, int]] | None = None

    # -- slot-backed state ---------------------------------------------------

    @property
    def kind(self) -> str:
        return KIND_NAME[int(self._store.kind[self._slot])]

    @property
    def alive(self) -> bool:
        return bool(self._store.alive[self._slot])

    @alive.setter
    def alive(self, value: bool) -> None:
        self._store.alive[self._slot] = value

    @property
    def moved(self) -> bool:
        """True when the last tick changed this entity's position."""
        return bool(self._store.moved[self._slot])

    @moved.setter
    def moved(self, value: bool) -> None:
        self._store.moved[self._slot] = value

    @property
    def x(self) -> float:
        return float(self._store.x[self._slot])

    @x.setter
    def x(self, value: float) -> None:
        self._store.x[self._slot] = value

    @property
    def y(self) -> float:
        return float(self._store.y[self._slot])

    @y.setter
    def y(self, value: float) -> None:
        self._store.y[self._slot] = value

    @property
    def z(self) -> float:
        return float(self._store.z[self._slot])

    @z.setter
    def z(self, value: float) -> None:
        self._store.z[self._slot] = value

    @property
    def vx(self) -> float:
        return float(self._store.vx[self._slot])

    @vx.setter
    def vx(self, value: float) -> None:
        self._store.vx[self._slot] = value

    @property
    def vy(self) -> float:
        return float(self._store.vy[self._slot])

    @vy.setter
    def vy(self, value: float) -> None:
        self._store.vy[self._slot] = value

    @property
    def vz(self) -> float:
        return float(self._store.vz[self._slot])

    @vz.setter
    def vz(self, value: float) -> None:
        self._store.vz[self._slot] = value

    @property
    def age_ticks(self) -> int:  # test-only: the tick ages the store's column
        return int(self._store.age[self._slot])

    @age_ticks.setter
    def age_ticks(self, value: int) -> None:
        self._store.age[self._slot] = value

    @property
    def fuse_ticks(self) -> int:
        return int(self._store.fuse[self._slot])

    @fuse_ticks.setter
    def fuse_ticks(self, value: int) -> None:
        self._store.fuse[self._slot] = value

    @property
    def stack_count(self) -> int:
        return int(self._store.stack[self._slot])

    @stack_count.setter
    def stack_count(self, value: int) -> None:
        self._store.stack[self._slot] = value

    @property
    def goal(self) -> tuple[int, int, int] | None:
        """Optional navigation target for mobs, set by farm constructs."""
        store, slot = self._store, self._slot
        if not store.has_goal[slot]:
            return None
        return (
            int(store.goal_x[slot]),
            int(store.goal_y[slot]),
            int(store.goal_z[slot]),
        )

    @goal.setter
    def goal(self, value: tuple[int, int, int] | None) -> None:
        store, slot = self._store, self._slot
        store.has_goal[slot] = value is not None
        if value is not None:
            store.goal_x[slot], store.goal_y[slot], store.goal_z[slot] = value

    @property
    def owner(self) -> int:
        """Index of the owning spawn platform (-1: none)."""
        return int(self._store.owner[self._slot])

    @owner.setter
    def owner(self, value: int) -> None:
        self._store.owner[self._slot] = value

    # -- derived -------------------------------------------------------------

    @property
    def block_pos(self) -> tuple[int, int, int]:
        """The world block cell the entity currently occupies."""
        store, slot = self._store, self._slot
        return (
            floor(store.x[slot]),
            floor(store.y[slot]),
            floor(store.z[slot]),
        )

    def __repr__(self) -> str:
        return (
            f"Entity(eid={self.eid}, kind={self.kind!r}, "
            f"pos=({self.x:.1f}, {self.y:.1f}, {self.z:.1f}), "
            f"alive={self.alive})"
        )
