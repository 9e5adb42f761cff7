"""Struct-of-arrays entity state storage (§2.2.3).

All per-entity simulation state lives in preallocated, grow-on-demand
numpy arrays indexed by *slot*.  :class:`repro.mlg.entity.Entity` objects
are lightweight handles over one slot; the entity manager's physics kernel
operates on the arrays directly, so one vectorized code path serves a
single dropped item and a ten-thousand-entity TNT chain identically.

Slots are recycled through a free list (LIFO, lowest-first after a grow)
and the store compacts itself when a despawn wave leaves it mostly empty,
so long farm runs do not hold peak-swarm memory forever.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EntityStore",
    "FrozenRows",
    "KIND_FREE",
    "KIND_ITEM",
    "KIND_MOB",
    "KIND_TNT",
    "KIND_PLAYER",
    "KIND_CODE",
    "KIND_NAME",
]

#: Slot-kind codes stored in the ``kind`` array.
KIND_FREE = 0
KIND_ITEM = 1
KIND_MOB = 2
KIND_TNT = 3
KIND_PLAYER = 4

KIND_CODE: dict[str, int] = {
    "item": KIND_ITEM,
    "mob": KIND_MOB,
    "tnt": KIND_TNT,
    "player": KIND_PLAYER,
}
KIND_NAME: dict[int, str] = {code: name for name, code in KIND_CODE.items()}

#: (name, dtype) of every per-slot state array.
FIELDS: tuple[tuple[str, type], ...] = (
    ("eid", np.int64),
    ("kind", np.uint8),
    ("alive", np.bool_),
    ("moved", np.bool_),
    ("x", np.float64),
    ("y", np.float64),
    ("z", np.float64),
    ("vx", np.float64),
    ("vy", np.float64),
    ("vz", np.float64),
    ("age", np.int64),
    ("fuse", np.int64),
    ("stack", np.int64),
    # Mob navigation: the goal (valid while ``has_goal``), the centre of
    # the waypoint being walked to (valid while ``path_left`` > 0; the
    # path itself stays on the handle), and the index of the owning
    # ``SpawnPlatform`` (-1: none).
    ("has_goal", np.bool_),
    ("goal_x", np.int64),
    ("goal_y", np.int64),
    ("goal_z", np.int64),
    ("way_x", np.float64),
    ("way_z", np.float64),
    ("path_left", np.int64),
    ("owner", np.int64),
)

#: Smallest capacity the store grows from / compacts down to.
MIN_CAPACITY = 128


class FrozenRows:
    """A copy of some slots' state taken as they are released, ``alive``
    all false: one row per slot, with the store's column names, so a
    reaped handle reads (and writes) ``rows.x[row]`` as a live one does
    ``store.x[slot]``."""

    __slots__ = tuple(name for name, _ in FIELDS)

    def __init__(self, store: EntityStore, slots: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(store, name)[slots])
        self.alive[:] = False


class EntityStore:
    """Slot-addressed struct-of-arrays backing store for entity state."""

    __slots__ = tuple(name for name, _ in FIELDS) + (
        "capacity",
        "live_count",
        "_free",
    )

    def __init__(self, capacity: int = MIN_CAPACITY) -> None:
        capacity = max(1, int(capacity))
        self.capacity = capacity
        self.live_count = 0
        for name, dtype in FIELDS:
            setattr(self, name, np.zeros(capacity, dtype=dtype))
        # LIFO free list, seeded descending so slot 0 is handed out first.
        self._free: list[int] = list(range(capacity - 1, -1, -1))

    # -- allocation -----------------------------------------------------------

    def allocate(
        self,
        eid: int,
        kind_code: int,
        x: float,
        y: float,
        z: float,
        vx: float = 0.0,
        vy: float = 0.0,
        vz: float = 0.0,
        fuse: int = -1,
        stack: int = 1,
    ) -> int:
        """Claim a slot (growing if exhausted) and initialise its state."""
        if not self._free:
            self._grow(self.capacity * 2)
        slot = self._free.pop()
        self.eid[slot] = eid
        self.kind[slot] = kind_code
        self.alive[slot] = True
        self.moved[slot] = False
        self.x[slot] = x
        self.y[slot] = y
        self.z[slot] = z
        self.vx[slot] = vx
        self.vy[slot] = vy
        self.vz[slot] = vz
        self.age[slot] = 0
        self.fuse[slot] = fuse
        self.stack[slot] = stack
        # A recycled slot must not inherit a goal, a path or an owner.
        self.has_goal[slot] = False
        self.goal_x[slot] = self.goal_y[slot] = self.goal_z[slot] = 0
        self.way_x[slot] = self.way_z[slot] = 0.0
        self.path_left[slot] = 0
        self.owner[slot] = -1
        self.live_count += 1
        return slot

    def release_many(self, slots: np.ndarray) -> FrozenRows:
        """Return ``slots`` (ascending, unique) to the free list in that
        order (their state becomes undefined); returns their final state,
        row ``i`` for ``slots[i]``."""
        final = FrozenRows(self, slots)
        self.kind[slots] = KIND_FREE
        self.alive[slots] = False
        self.eid[slots] = 0
        self.live_count -= slots.size
        self._free.extend(slots.tolist())
        return final

    # -- queries --------------------------------------------------------------

    def used_slots(self) -> np.ndarray:
        """Slots currently claimed (alive or dead-but-not-reaped)."""
        return (self.kind != KIND_FREE).nonzero()[0]

    def alive_slots(self, kind_code: int | None = None) -> np.ndarray:
        """Slots of live entities, optionally filtered by kind."""
        if kind_code is None:
            return self.alive.nonzero()[0]
        return (self.alive & (self.kind == kind_code)).nonzero()[0]

    def count(self, kind_code: int | None = None) -> int:
        """Live entity count — a pure array reduction."""
        if kind_code is None:
            return int(np.count_nonzero(self.alive))
        return int(np.count_nonzero(self.alive & (self.kind == kind_code)))

    def moved_count(self) -> int:
        """Live entities whose last tick changed their position."""
        return int(np.count_nonzero(self.alive & self.moved))

    # -- capacity management --------------------------------------------------

    def _grow(self, new_capacity: int) -> None:
        old_capacity = self.capacity
        for name, dtype in FIELDS:
            grown = np.zeros(new_capacity, dtype=dtype)
            grown[:old_capacity] = getattr(self, name)
            setattr(self, name, grown)
        # New slots join the free list lowest-first (popped from the end).
        self._free.extend(range(new_capacity - 1, old_capacity - 1, -1))
        self.capacity = new_capacity

    def should_compact(self) -> bool:
        """True when a despawn wave left the store mostly empty."""
        used = self.capacity - len(self._free)
        return self.capacity > MIN_CAPACITY and used < self.capacity // 4

    def compact(self) -> np.ndarray:
        """Repack used slots to the front and shrink the arrays.

        Returns the array of *old* slot indices in their new order, so the
        caller can remap its slot-indexed handles:
        ``new_slot_of[old_slots[i]] = i``.
        """
        old_slots = self.used_slots()
        used = int(old_slots.size)
        new_capacity = max(MIN_CAPACITY, 1 << max(0, int(used - 1).bit_length()))
        for name, dtype in FIELDS:
            packed = np.zeros(new_capacity, dtype=dtype)
            packed[:used] = getattr(self, name)[old_slots]
            setattr(self, name, packed)
        self.capacity = new_capacity
        self._free = list(range(new_capacity - 1, used - 1, -1))
        return old_slots
