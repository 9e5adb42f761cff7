"""Workload abstraction (§3.3): world + runtime behaviour + players.

A workload owns three things: how to build its starting world (Table 2),
what runtime machinery to install on the server (ignition timers, farm
hooks, the lag feedback), and which bots to connect (a single idle observer
for environment-based workloads, 25 walking bots for the player workload).
"""

from __future__ import annotations

from repro.emulation.swarm import BotSwarm
from repro.mlg.server import MLGServer
from repro.mlg.world import World

__all__ = ["Workload"]


class Workload:
    """Base class for the five benchmark workloads.

    ``scale`` is the paper's workload-intensity knob (R8): 1 is the
    configuration used in the paper's experiments; higher values select
    higher-complexity versions of the same construct.
    """

    #: Registry key, e.g. ``"control"``.
    name: str = ""
    #: Name as printed in the paper's tables/figures, e.g. ``"Control"``.
    display_name: str = ""
    #: One-line description for reports.
    description: str = ""
    #: True when this workload connects the 25-bot player swarm.
    player_based: bool = False

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale!r}")
        self.scale = scale

    # -- lifecycle ---------------------------------------------------------------

    def create_world(self, seed: int) -> World:
        """Build the starting world (called once per iteration).  Terrain
        written here gives the workload its own warm-cache snapshot (see
        ``repro.persistence.warmup.world_cache_key``)."""
        raise NotImplementedError

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        """Attach runtime hooks and connect this workload's bots."""
        raise NotImplementedError

    # -- reporting ----------------------------------------------------------------

    def world_size_mb(self, world: World) -> float:
        """Loaded world size in MB (Table 2's "Size" column analogue)."""
        return world.nbytes / (1024.0 * 1024.0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(scale={self.scale})"
