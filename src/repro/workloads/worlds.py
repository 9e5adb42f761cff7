"""The five benchmark workloads (Tables 2 and 3).

================  =========================================  ==========
Name              Properties (paper Table 2)                 Substrate
================  =========================================  ==========
Control           Freshly generated world                    seeded worldgen
TNT               Entity actions, terrain updates            16×16×14 TNT cuboid, ignites ~20 s after connect
Farm              Resource-farm constructs                   12 entity farms, 4 stone farms, 4 kelp farms, 1 item sorter
Lag               Complex simulated construct, stress test   clock-driven gate storm, every-other-tick
Players           (§3.4.1 player-based workload)             25 bots random-walking a 32×32 area
Exploration       Chunk IO churn (persistence extension)     scout squads spiral outward from spawn
================  =========================================  ==========
"""

from __future__ import annotations

from itertools import groupby

from repro.emulation.behavior import SpiralMarch
from repro.emulation.swarm import BotSwarm
from repro.mlg.blocks import Block
from repro.mlg.server import MLGServer
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World, cuboid_cells
from repro.mlg.worldgen import PAPER_SEED, TerrainGenerator
from repro.workloads.base import Workload
from repro.workloads.constructs import (
    Blocks,
    build_entity_farm,
    build_item_sorter,
    build_kelp_farm,
    build_lag_machine,
    build_stone_farm,
    entity_farm_blocks,
    kelp_farm_blocks,
)

__all__ = [
    "ControlWorkload",
    "TNTWorkload",
    "FarmWorkload",
    "LagWorkload",
    "PlayersWorkload",
    "FloodWorkload",
    "ExplorationWorkload",
]

#: TNT ignites this long after the player connects (§3.3.1: "around 20
#: seconds after a player connects").
TNT_IGNITION_DELAY_TICKS = 400

#: The Flood dam breaches this long after the player connects (T+10 s).
FLOOD_BREACH_DELAY_TICKS = 200
#: After the breach, the dam gate cycles (re-seal / re-open) at this
#: period so the basin alternates between flooding and draining for the
#: whole run instead of settling into a quiet steady state.
FLOOD_GATE_CYCLE_TICKS = 100


class ControlWorkload(Workload):
    """Best-case workload: an unmodified freshly generated world."""

    name = "control"
    display_name = "Control"
    description = "Freshly generated world (seed from the paper)"

    def create_world(self, seed: int) -> World:
        return World(generator=TerrainGenerator(seed=seed ^ PAPER_SEED))

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        swarm.add_observer()


class TNTWorkload(Workload):
    """Worst-case entity/physics burst: a TNT cuboid chain reaction."""

    name = "tnt"
    display_name = "TNT"
    description = "16x16x14 TNT cuboid, ignited ~20s after connect"

    #: Base cuboid dimensions (x, y, z) at scale 1.
    BASE_DIMS = (16, 14, 16)

    def cuboid_dims(self) -> tuple[int, int, int]:
        sx, sy, sz = self.BASE_DIMS
        return (sx, max(1, int(sy * self.scale)), sz)

    def create_world(self, seed: int) -> World:
        world = World(generator=TerrainGenerator(seed=seed ^ PAPER_SEED))
        dx, dy, dz = self.cuboid_dims()
        x0, z0 = 24, 24
        world.ensure_chunk(x0 >> 4, z0 >> 4)
        world.ensure_chunk((x0 + dx) >> 4, (z0 + dz) >> 4)
        y0 = max(
            world.column_height(x0 + dx // 2, z0 + dz // 2), 40
        )
        self._cuboid = (x0, y0, z0, x0 + dx - 1, y0 + dy - 1, z0 + dz - 1)
        world.fill(*self._cuboid[:3], *self._cuboid[3:], Block.TNT)
        return world

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        swarm.add_observer()
        cuboid = self._cuboid

        def ignite(server_: MLGServer, tick_index: int, report: WorkReport,
                   _cuboid=cuboid) -> None:
            if tick_index != TNT_IGNITION_DELAY_TICKS:
                return
            x0, y0, z0, x1, y1, z1 = _cuboid
            server_.tnt.prime_region(
                x0, y0, z0, x1, y1, z1, fuse_spread=(60, 170)
            )

        server.add_tick_hook(ignite)


class FarmWorkload(Workload):
    """Resource-farm constructs sourced from community creators (Table 3)."""

    name = "farm"
    display_name = "Farm"
    description = (
        "12 entity farms, 4 stone farms, 4 kelp farms, 1 item sorter"
    )

    def counts(self) -> dict[str, int]:
        s = self.scale
        return {
            "entity_farm": max(1, int(12 * s)),
            "stone_farm": max(1, int(4 * s)),
            "kelp_farm": max(1, int(4 * s)),
            "item_sorter": 1,
        }

    def create_world(self, seed: int) -> World:
        return World(generator=TerrainGenerator(seed=seed ^ PAPER_SEED))

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        counts = self.counts()
        # Lay the constructs out on a ring near spawn, inside the
        # observer's view distance so they are simulated.
        positions = self._ring_positions(
            sum(counts.values()), radius=56, center=(8, 8)
        )
        cursor = iter(positions)
        # A group with a footprint loads its chunks in one pass, in the
        # order its builds first touch them.  Stone farms and the sorter
        # read a column height first, so nothing loads theirs early.
        for kind, build, footprint in (
            ("entity_farm", build_entity_farm, entity_farm_blocks),
            ("stone_farm", build_stone_farm, None),
            ("kelp_farm", build_kelp_farm, kelp_farm_blocks),
            ("item_sorter", build_item_sorter, None),
        ):
            sites = [next(cursor) for _ in range(counts[kind])]
            if footprint is not None:
                server.world.ensure_chunks(Blocks.concat(
                    footprint(x, z) for x, z in sites
                ).chunks())
            for x, z in sites:
                build(server, x, z)
        swarm.add_observer()

    @staticmethod
    def _ring_positions(
        n: int, radius: int, center: tuple[int, int]
    ) -> list[tuple[int, int]]:
        import math

        cx, cz = center
        out = []
        for i in range(n):
            angle = 2 * math.pi * i / max(1, n)
            r = radius if i % 2 == 0 else radius * 0.6
            out.append(
                (int(cx + r * math.cos(angle)), int(cz + r * math.sin(angle)))
            )
        return out


class LagWorkload(Workload):
    """Worst-case stress test: a community Lag Machine design (§3.3.1)."""

    name = "lag"
    display_name = "Lag"
    description = "Clock-driven logic-gate storm, every-other-tick"

    #: Total gate evaluations per pulse at scale 1.
    BASE_GATES = 850_000

    def create_world(self, seed: int) -> World:
        return World(generator=TerrainGenerator(seed=seed ^ PAPER_SEED))

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        self.machine = build_lag_machine(
            server, x0=20, z0=20,
            total_gates=int(self.BASE_GATES * self.scale),
        )
        swarm.add_observer()


class FloodWorkload(Workload):
    """Water-heavy terrain simulation: a dam break over a terraced basin.

    A reservoir holds water behind an obsidian gate; at T+10 s the gate is
    removed and the flood cascades down a terraced basin, stressing the
    fluid queue and the change-log → packet path.  The gate then cycles
    (re-seal, re-open) so the basin keeps alternating between flooding
    and draining — the first workload whose tick time is dominated by the
    Fluids bucket of the Figure 11 taxonomy.
    """

    name = "flood"
    display_name = "Flood"
    description = "Dam-break reservoir flooding a terraced basin"

    #: Basin length (x), width (z), and reservoir water depth at scale 1.
    #: The reservoir sits mid-basin with a gate on each face, so a breach
    #: sends two independent cascade fronts down the two terraced slopes.
    BASE_LENGTH = 56
    BASE_WIDTH = 62
    BASE_DEPTH = 4
    #: Terrace geometry: past a gate the floor drops TERRACE_DROP blocks
    #: every TERRACE_RUN blocks of distance, so the cascading flood keeps
    #: resetting to full spread level instead of dying after 7 blocks.
    TERRACE_RUN = 2
    TERRACE_DROP = 2
    #: Reservoir surface height (terraces descend from here).
    TOP_FLOOR = 44
    #: Length of the reservoir pocket between the two gates.
    RESERVOIR_LEN = 8
    #: Observer view distance: the basin fills the view; a wide view would
    #: just add ambient chunk-scan cost that drowns the fluid signal.
    VIEW_DISTANCE = 2

    def dims(self) -> tuple[int, int, int]:
        return (
            max(32, int(self.BASE_LENGTH * self.scale)),
            max(16, int(self.BASE_WIDTH * self.scale)),
            max(2, int(self.BASE_DEPTH * self.scale)),
        )

    def _floor_y(self, x: int, gate_lo: int, gate_hi: int) -> int:
        """Terraced floor height: descends away from both gates."""
        if gate_lo <= x <= gate_hi:
            return self.TOP_FLOOR
        dist = gate_lo - x if x < gate_lo else x - gate_hi
        drop = self.TERRACE_DROP * (dist // self.TERRACE_RUN)
        return max(6, self.TOP_FLOOR - drop)

    def create_world(self, seed: int) -> World:
        # A constructed canyon, not generated terrain: every interior
        # surface is a water bed (spawn checks refuse non-solid floors),
        # so the fluid signal is not drowned by ambient mob population.
        world = World()
        length, width, depth = self.dims()
        x0, z0 = 16, 16
        top_floor = self.TOP_FLOOR
        wall_top = top_floor + depth + 6
        x1, z1 = x0 + length - 1, z0 + width - 1
        res_lo = x0 + (length - self.RESERVOIR_LEN) // 2
        res_hi = res_lo + self.RESERVOIR_LEN - 1
        gate_lo, gate_hi = res_lo - 1, res_hi + 1
        # Terraced floor with a one-block water bed on every step: one
        # cuboid per run of x with the same floor height.
        for floor_y, run in groupby(
            range(x0, x1 + 1), lambda x: self._floor_y(x, gate_lo, gate_hi)
        ):
            xs = list(run)
            world.fill(xs[0], 4, z0, xs[-1], floor_y, z1, Block.STONE)
            world.fill(xs[0], floor_y + 1, z0, xs[-1], floor_y + 1, z1,
                       Block.WATER_SOURCE)
        # Rim walls confine the flood; their kelp cap keeps the wall top
        # from being a spawnable surface.
        for wx0, wz0, wx1, wz1 in (
            (x0 - 1, z0 - 1, x1 + 1, z0 - 1),
            (x0 - 1, z1 + 1, x1 + 1, z1 + 1),
            (x0 - 1, z0 - 1, x0 - 1, z1 + 1),
            (x1 + 1, z0 - 1, x1 + 1, z1 + 1),
        ):
            world.fill(wx0, 4, wz0, wx1, wall_top, wz1, Block.OBSIDIAN)
            world.fill(wx0, wall_top + 1, wz0, wx1, wall_top + 1, wz1,
                       Block.KELP)
        # The two dam gates and the reservoir between them.  The kelp cap
        # above each cycled slab keeps a closed gate's top from being the
        # one spawnable surface in the workload.
        gate_y1 = top_floor + depth + 1
        self._gates = [
            (gate_lo, top_floor + 1, z0, gate_lo, gate_y1, z1),
            (gate_hi, top_floor + 1, z0, gate_hi, gate_y1, z1),
        ]
        for gate in self._gates:
            world.fill(*gate, Block.OBSIDIAN)
            world.fill(gate[0], gate_y1 + 1, z0,
                       gate[0], gate_y1 + 1, z1, Block.KELP)
        world.fill(
            res_lo, top_floor + 1, z0,
            res_hi, top_floor + depth, z1,
            Block.WATER_SOURCE,
        )
        self._spawn = (float(x0 + length // 2), float(z0 + width // 2))
        return world

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        gates = tuple(self._gates)

        def cycle_gates(server_: MLGServer, tick_index: int,
                        report: WorkReport, _gates=gates) -> None:
            if tick_index < FLOOD_BREACH_DELAY_TICKS:
                return
            phase, offset = divmod(
                tick_index - FLOOD_BREACH_DELAY_TICKS, FLOOD_GATE_CYCLE_TICKS
            )
            if offset != 0:
                return
            # Even phases open the gates (the breach), odd phases re-seal
            # them so the basin drains; both mutate the full gate slabs
            # and wake the adjacent fluid cells.
            block = Block.AIR if phase % 2 == 0 else Block.OBSIDIAN
            for gx0, gy0, gz0, gx1, gy1, gz1 in _gates:
                changed = server_.world.fill(
                    gx0, gy0, gz0, gx1, gy1, gz1, block, log=True
                )
                if changed:
                    report.add(Op.BLOCK_ADD_REMOVE, changed)
                # The slabs are one block thick in x: z-major, y inside.
                server_.fluids.schedule_neighbors_bulk(
                    *cuboid_cells(gx0, gy0, gz0, gx0, gy1, gz1)
                )

        server.add_tick_hook(cycle_gates)
        sx, sz = self._spawn
        swarm.add_observer(
            spawn_x=sx, spawn_z=sz, view_distance=self.VIEW_DISTANCE
        )


class ExplorationWorkload(Workload):
    """Chunk-churn workload: scout squads spiral outward from spawn.

    Each scout marches out-and-back sorties along its own spiral arm
    (see :class:`~repro.emulation.behavior.SpiralMarch`), continuously
    pushing the terrain-generation frontier outward while re-entering the
    terrain previous sorties left behind.  With persistence enabled this
    forces the full generate → autosave → evict → reload cycle, making
    "Autosave" and "Chunk Load" visible buckets in the Fig. 11 tick-time
    taxonomy; without it, the run degenerates to pure frontier generation
    (and an ever-growing world — exactly the memory growth eviction is
    there to cap).
    """

    name = "exploration"
    display_name = "Exploration"
    description = "Scout squads spiral outward, churning chunk IO"
    player_based = True

    #: Scouts at scale 1 (each gets its own spiral arm).
    BASE_BOTS = 4
    #: Narrow view keeps the per-border chunk burst bounded and makes
    #: terrain leave the view (and become evictable) quickly.
    VIEW_DISTANCE = 4
    #: Seconds between scout connects (staggers the join bursts).
    STAGGER_S = 0.5

    def __init__(self, scale: float = 1.0) -> None:
        super().__init__(scale)
        self.n_bots = max(1, round(self.BASE_BOTS * scale))

    def create_world(self, seed: int) -> World:
        return World(generator=TerrainGenerator(seed=seed ^ PAPER_SEED))

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        import math

        for i in range(self.n_bots):
            swarm.add_bot(
                name=f"scout-{i}",
                behavior=SpiralMarch(
                    cx=8.0,
                    cz=8.0,
                    phase=2.0 * math.pi * i / self.n_bots,
                ),
                spawn_x=8.0,
                spawn_z=8.0,
                connect_delay_s=i * self.STAGGER_S,
                view_distance=self.VIEW_DISTANCE,
            )


class PlayersWorkload(Workload):
    """The traditional player-based workload (§3.4.1): 25 walking bots."""

    name = "players"
    display_name = "Players"
    description = "25 emulated players random-walking a 32x32 area"
    player_based = True

    def __init__(
        self,
        scale: float = 1.0,
        n_bots: int = 25,
        behavior: str = "bounded-random",
    ) -> None:
        super().__init__(scale)
        self.n_bots = max(1, int(n_bots * scale))
        self.behavior = behavior

    def create_world(self, seed: int) -> World:
        return World(generator=TerrainGenerator(seed=seed ^ PAPER_SEED))

    def install(self, server: MLGServer, swarm: BotSwarm) -> None:
        swarm.add_player_workload(n_bots=self.n_bots, behavior=self.behavior)
