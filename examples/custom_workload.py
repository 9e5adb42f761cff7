#!/usr/bin/env python
"""Build a custom workload against the public API (the paper's R8).

Defines a "griefer raid": a world with a village-like built area where a
walking player detonates scattered TNT charges while two farms keep
running — then benchmarks it on two environments.  Shows how to subclass
:class:`repro.workloads.Workload` and wire custom tick hooks.
"""

from repro.cloud import get_environment
from repro.core import run_iteration
from repro.reporting.text import format_table
from repro.emulation import BotSwarm, BoundedRandomWalk
from repro.mlg.blocks import Block
from repro.mlg.server import MLGServer
from repro.mlg.workreport import WorkReport
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.simtime import SimClock
from repro.workloads import Workload
from repro.workloads.constructs import build_entity_farm, build_stone_farm


class GrieferRaid(Workload):
    """Scattered TNT charges detonating around an inhabited build."""

    name = "griefer-raid"
    display_name = "Griefer Raid"
    description = "walking player + farms + staggered TNT charges"

    def create_world(self, seed: int) -> World:
        world = World(generator=TerrainGenerator(seed=seed))
        # A small "village": cobble houses on the surface.
        world.ensure_chunk(2, 2)
        ground = world.column_height(40, 40)
        for house in range(4):
            bx = 36 + (house % 2) * 10
            bz = 36 + (house // 2) * 10
            world.fill(bx, ground, bz, bx + 5, ground + 3, bz + 5,
                       Block.COBBLESTONE)
        # Buried TNT charges around the village.
        self._charges = []
        for i in range(int(6 * self.scale)):
            cx, cz = 30 + (i * 7) % 28, 30 + (i * 11) % 28
            cy = max(2, world.column_height(cx, cz) - 2)
            world.fill(cx, cy, cz, cx + 1, cy + 1, cz + 1, Block.TNT)
            self._charges.append((cx, cy, cz))
        return world

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        build_entity_farm(server, 60, 30)
        build_stone_farm(server, 30, 60)
        charges = list(self._charges)

        def detonate(server_: MLGServer, tick_index: int,
                     report: WorkReport) -> None:
            # One charge every five seconds, starting at t=10 s.
            if tick_index < 200 or tick_index % 100 != 0:
                return
            charge = (tick_index - 200) // 100
            if charge < len(charges):
                x, y, z = charges[charge]
                server_.tnt.prime_region(x, y, z, x + 1, y + 1, z + 1,
                                         fuse_spread=(10, 30))

        server.add_tick_hook(detonate)
        swarm.add_bot(
            "raider",
            behavior=BoundedRandomWalk(28.0, 28.0, 62.0, 62.0),
            spawn_x=45.0, spawn_z=45.0,
        )


def main() -> None:
    rows = []
    for environment in ("das5-2core", "aws-t3.large"):
        env = get_environment(environment)
        machine = env.create_machine(seed=5)
        machine.drain_credits()
        workload = GrieferRaid()
        world = workload.create_world(5)
        server = MLGServer("vanilla", machine, world=world,
                           clock=SimClock(), seed=5)
        import numpy as np

        swarm = BotSwarm(server, env.network, np.random.default_rng(5))
        workload.install(server, swarm)
        server.start()
        deadline = server.clock.now_us + 45_000_000
        while server.clock.now_us < deadline and server.running:
            server.tick()
            swarm.step()
            if server.crashed:
                break
        from repro.metrics import instability_ratio
        from repro.telemetry import summarize

        ticks = server.telemetry.tick_ms.tolist()
        stats = summarize(ticks)
        rows.append(
            [
                environment,
                f"{stats['mean']:.1f}",
                f"{stats['max']:.0f}",
                f"{instability_ratio(ticks, 50.0):.4f}",
                server.tnt.explosions_total,
            ]
        )
    print(format_table(
        ["environment", "tick mean ms", "tick max ms", "ISR", "explosions"],
        rows,
    ))


if __name__ == "__main__":
    main()
