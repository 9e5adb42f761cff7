"""Bot swarm: manages a group of emulated players against one server.

Plays the role of Meterstick's player-emulation workers (Fig. 5): connects
``n`` bots (optionally staggered, the way real players trickle in) and
steps them after every server tick.  Their response-time samples stream
into the server's telemetry tap through each bot's session.

The swarm holds a *transport*, never a server: every bot it creates gets
its own :class:`~repro.mlg.transport.ServerSession`, so the same swarm
code drives in-process and wire-backed fleets.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

import numpy as np

from repro.cloud.network import NetworkModel
from repro.emulation.behavior import Behavior, Idle, make_behavior
from repro.emulation.bot import EmulatedPlayer
from repro.mlg.transport import as_transport

__all__ = ["BotSwarm"]


class BotSwarm:
    """A set of bots plus their connection plan.

    ``target`` may be a transport or a bare ``MLGServer`` (normalized via
    :func:`as_transport` for callers that predate the boundary).
    """

    def __init__(
        self,
        target,
        network: NetworkModel,
        rng: np.random.Generator,
    ) -> None:
        self.transport = as_transport(target)
        self.network = network
        self.rng = rng
        self.bots: list[EmulatedPlayer] = []
        #: (connect_at_us, join) for staggered joins: ``join(session, rng)``
        #: builds the player.  The swarm passes its own transport and rng
        #: in at connect time, so nothing waiting here refers back to it.
        self._pending: list[tuple[int, Callable[..., EmulatedPlayer]]] = []

    # -- construction --------------------------------------------------------------

    def add_bot(
        self,
        name: str,
        behavior: Behavior | None = None,
        spawn_x: float = 8.0,
        spawn_z: float = 8.0,
        connect_delay_s: float = 0.0,
        probe_interval_s: float = 1.0,
        view_distance: int | None = None,
    ) -> None:
        """Schedule one bot; delay 0 connects immediately."""
        up, down = self.network.latency_pair(self.rng)
        join = partial(
            EmulatedPlayer,
            name,
            behavior=behavior,
            spawn_x=spawn_x,
            spawn_z=spawn_z,
            latency_up_us=up,
            latency_down_us=down,
            probe_interval_s=probe_interval_s,
            view_distance=view_distance,
        )
        if connect_delay_s <= 0.0:
            self.bots.append(join(self.transport.session(), self.rng))
        else:
            connect_at = self.transport.now_us() + int(connect_delay_s * 1e6)
            self._pending.append((connect_at, join))
            self._pending.sort(key=lambda entry: entry[0])

    def add_player_workload(
        self,
        n_bots: int = 25,
        area: tuple[float, float, float, float] = (0.0, 0.0, 32.0, 32.0),
        stagger_s: float = 0.25,
        behavior: str = "bounded-random",
    ) -> None:
        """The paper's Players workload: ``n_bots`` bots in a 32×32 box.

        ``behavior`` selects how each bot moves (Table 4): the default
        bounded random walk, or ``"idle"`` for stationary players.
        """
        x0, z0, x1, z1 = area
        for i in range(n_bots):
            self.add_bot(
                name=f"bot-{i}",
                behavior=make_behavior(behavior, area),
                spawn_x=float(self.rng.uniform(x0, x1)),
                spawn_z=float(self.rng.uniform(z0, z1)),
                connect_delay_s=i * stagger_s,
            )

    def add_observer(
        self,
        name: str = "observer",
        spawn_x: float = 8.0,
        spawn_z: float = 8.0,
        view_distance: int | None = None,
    ) -> None:
        """The single idle player of the environment-based workloads."""
        self.add_bot(
            name,
            behavior=Idle(),
            spawn_x=spawn_x,
            spawn_z=spawn_z,
            view_distance=view_distance,
        )

    # -- per-tick driving --------------------------------------------------------------

    def step(self) -> None:
        """Connect due bots, then step everyone (call after a server tick)."""
        now = self.transport.now_us()
        while self._pending and self._pending[0][0] <= now:
            _, join = self._pending.pop(0)
            self.bots.append(join(self.transport.session(), self.rng))
        for bot in self.bots:
            bot.step(now)

    # -- results ------------------------------------------------------------------------

    @property
    def connected_count(self) -> int:
        return sum(1 for bot in self.bots if bot.connected)
