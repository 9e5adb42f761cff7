"""Bot behaviours (§3.4.1).

The paper's player-based workload connects 25 emulated players that "move
randomly in a 32-by-32 area"; the environment-based workloads connect a
single player that "performs no actions" (it still sends the chat probes
that measure response time, §3.5.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BEHAVIORS",
    "Behavior",
    "BoundedRandomWalk",
    "Idle",
    "SpiralMarch",
    "make_behavior",
]


class Behavior:
    """Decides a bot's next movement target each tick (or None)."""

    def next_move(
        self, x: float, z: float, rng: np.random.Generator
    ) -> tuple[float, float] | None:
        raise NotImplementedError


@dataclass
class BoundedRandomWalk(Behavior):
    """Random waypoint walking inside an axis-aligned box.

    The bot picks a waypoint in the box, walks toward it at ``speed``
    blocks per tick, then picks a new one — the paper's bounded random
    movement (Table 4: Behavior = "Bounded random").
    """

    x0: float
    z0: float
    x1: float
    z1: float
    speed: float = 0.22

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.z1 <= self.z0:
            raise ValueError("walk box corners must be ordered and non-empty")
        self._target: tuple[float, float] | None = None

    def next_move(
        self, x: float, z: float, rng: np.random.Generator
    ) -> tuple[float, float] | None:
        if self._target is None:
            self._target = (
                float(rng.uniform(self.x0, self.x1)),
                float(rng.uniform(self.z0, self.z1)),
            )
        tx, tz = self._target
        dx = tx - x
        dz = tz - z
        dist = (dx * dx + dz * dz) ** 0.5
        if dist < self.speed:
            self._target = None
            return (tx, tz)
        return (x + dx / dist * self.speed, z + dz / dist * self.speed)


class Idle(Behavior):
    """Performs no movement (the environment-workload observer player)."""

    def next_move(
        self, x: float, z: float, rng: np.random.Generator
    ) -> tuple[float, float] | None:
        return None


@dataclass
class SpiralMarch(Behavior):
    """Out-and-back sorties along an Archimedean spiral (Exploration).

    The bot marches outward along the spiral ``r = spacing·θ/2π`` at
    constant ground speed until it reaches the sortie's maximum radius,
    then retraces the same arc back to ``min_radius``, then heads out
    again with the maximum radius grown by ``growth`` — so every sortie
    re-enters terrain the previous one left behind (evicted chunks reload
    from disk) before pushing the generation frontier further out.
    ``phase`` rotates the whole route, giving each squad member its own
    spiral arm.
    """

    cx: float = 8.0
    cz: float = 8.0
    #: Ground speed in blocks per tick (a mounted scout, not a walker).
    speed: float = 1.6
    #: Radial distance between consecutive spiral windings, in blocks.
    spacing: float = 24.0
    #: Route rotation, in radians.  ``None`` draws a rotation from the
    #: bot's RNG on the first step, so registry-built bots (which all get
    #: identical constructor arguments) still fan out over distinct arms.
    phase: float | None = None
    #: Radius at which an inbound leg turns around.
    min_radius: float = 12.0
    #: First sortie's maximum radius.
    initial_radius: float = 64.0
    #: Maximum-radius growth per sortie.
    growth: float = 32.0

    def __post_init__(self) -> None:
        if self.speed <= 0 or self.spacing <= 0:
            raise ValueError("spiral speed and spacing must be positive")
        if not 0 < self.min_radius < self.initial_radius:
            raise ValueError("need 0 < min_radius < initial_radius")
        self._b = self.spacing / (2.0 * math.pi)
        self._theta = self.min_radius / self._b
        self._direction = 1
        self._max_radius = self.initial_radius

    def next_move(
        self, x: float, z: float, rng: np.random.Generator
    ) -> tuple[float, float] | None:
        if self.phase is None:
            self.phase = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = self._b * self._theta
        # Constant ground speed: ds = √(r² + b²)·dθ for an Archimedean
        # spiral, so dθ shrinks as the arc widens.
        dtheta = self.speed / math.hypot(radius, self._b)
        self._theta += self._direction * dtheta
        radius = self._b * self._theta
        if self._direction > 0 and radius >= self._max_radius:
            self._direction = -1
        elif self._direction < 0 and radius <= self.min_radius:
            self._direction = 1
            self._max_radius += self.growth
        angle = self._theta + self.phase
        return (
            self.cx + radius * math.cos(angle),
            self.cz + radius * math.sin(angle),
        )


#: Behaviour names accepted by ``MeterstickConfig.behavior`` (Table 4).
BEHAVIORS = ("bounded-random", "idle", "spiral-march")


def make_behavior(
    name: str, area: tuple[float, float, float, float] = (0.0, 0.0, 32.0, 32.0)
) -> Behavior:
    """Instantiate a behaviour by its config name.

    ``area`` is the walk box used by movement behaviours; idle behaviours
    ignore it.
    """
    key = name.lower()
    if key == "idle":
        return Idle()
    if key == "bounded-random":
        return BoundedRandomWalk(*area)
    if key == "spiral-march":
        x0, z0, x1, z1 = area
        return SpiralMarch(cx=(x0 + x1) / 2.0, cz=(z0 + z1) / 2.0)
    known = ", ".join(BEHAVIORS)
    raise ValueError(f"unknown behavior {name!r}; known: {known}")
