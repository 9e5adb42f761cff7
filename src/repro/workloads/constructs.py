"""Simulated-construct builders: the Farm world's machines and the Lag
machine (§3.3.1, Tables 2 and 3).

Each builder writes real blocks into the world (platforms, water channels,
redstone) and registers the runtime pieces (spawn platforms, clocks, tick
hooks) that make the construct *act*.  The construct inventory mirrors
Table 3: Entity Farms (gnembon), Stone Farms (Shulkercraft), Kelp Farms
(Mumbo Jumbo), and an Item Sorter (Mysticat).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import pack_keys
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.redstone import ClockCircuit
from repro.mlg.server import MLGServer
from repro.mlg.spawning import SpawnPlatform
from repro.mlg.entity import EntityKind
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = [
    "build_entity_farm",
    "build_stone_farm",
    "build_kelp_farm",
    "build_item_sorter",
    "LagMachine",
    "build_lag_machine",
]

#: Stone/entity farm activation interval: "a fixed interval of around 4
#: seconds" (§3.3.1) = 80 game ticks.
FARM_CLOCK_TICKS = 80


def _absorb_items(
    server: MLGServer,
    report: WorkReport,
    x: float,
    z: float,
    radius: float,
    min_age_ticks: int,
    limit: int = 24,
) -> int:
    """Hopper collection shared by the farm constructs.

    Absorbs settled item entities within a horizontal radius — every real
    farm design ends in a hopper line, which is what keeps a farm's item
    population bounded.
    """
    absorbed = server.entities.absorb_items(
        x, z, radius, min_age_ticks=min_age_ticks, limit=limit
    )
    if absorbed:
        report.add(Op.BLOCK_UPDATE, 8 * absorbed)
    return absorbed


class Blocks(NamedTuple):
    """A construct's blocks as the columns of one bulk write, in the order
    a cell-by-cell build writes them (which decides the order its chunks
    load in, and so their random-tick pairing)."""

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    ids: np.ndarray
    auxs: np.ndarray

    @classmethod
    def stamp(cls, xs, zs, y: int, pattern) -> Blocks:
        """``pattern``, rows of ``(dx, dy, dz, block, aux)``, stamped at
        each anchor ``(x, y, z)``, anchor by anchor."""
        xs, zs = np.broadcast_arrays(xs, zs)
        anchors = np.zeros((xs.size, 1, 5), np.int64)
        anchors[:, 0, 0], anchors[:, 0, 1], anchors[:, 0, 2] = xs, y, zs
        cells = anchors + np.array(pattern, dtype=np.int64)
        return cls(*cells.reshape(-1, 5).T)

    @classmethod
    def concat(cls, parts) -> Blocks:
        return cls(*map(np.concatenate, zip(*parts)))

    def chunks(self) -> list[tuple[int, int]]:
        """The chunks under the in-bounds cells, in first-touch order."""
        keep = (self.ys >= 0) & (self.ys < WORLD_HEIGHT)
        cxs, czs = self.xs[keep] >> 4, self.zs[keep] >> 4
        first = np.sort(np.unique(pack_keys(cxs, czs), return_index=True)[1])
        return list(zip(cxs[first].tolist(), czs[first].tolist()))

    def write(self, world: World) -> None:
        """Load the chunks in first-touch order (a bulk write alone takes
        key order), then write the (unique) cells at once, unlogged."""
        world.ensure_chunks(self.chunks())
        world.set_blocks_bulk(*self, log=False)


def entity_farm_blocks(x0: int, z0: int, y: int = 80,
                       size: int = 8) -> Blocks:
    """A solid obsidian platform, three layers of air over it, and a
    light-blocking stone roof: columns x-major."""
    span = np.arange(size)
    return Blocks.stamp(x0 + np.repeat(span, size), z0 + np.tile(span, size),
                        y, [(0, -1, 0, Block.OBSIDIAN, 0),
                            (0, 3, 0, Block.STONE, 0),
                            *((0, dy, 0, Block.AIR, 0) for dy in range(3))])


def build_entity_farm(server: MLGServer, x0: int, z0: int,
                      y: int = 80) -> SpawnPlatform:
    """A gnembon-style hostile mob farm: dark platform, funnel, kill drop.

    Spawned mobs path toward the kill chamber at the platform corner; on
    arrival they die and drop items (the farm's yield).  The spawning is
    "driven" (§3.3.1): the platform boosts attempts and manipulates mob
    pathfinding via the goal.
    """
    size = 8
    entity_farm_blocks(x0, z0, y, size).write(server.world)
    goal = (x0 + size - 1, y, z0 + size - 1)
    platform = SpawnPlatform(
        x0=x0,
        z0=z0,
        x1=x0 + size - 1,
        z1=z0 + size - 1,
        y=y,
        attempts_per_tick=0.08,
        local_cap=10,
        goal=goal,
        drops_per_kill=2,
    )
    server.spawning.add_platform(platform)
    # Relight so the roofed platform is actually dark.
    chunk = server.world.get_chunk(x0 >> 4, z0 >> 4)
    if chunk is not None:
        server.lights.light_chunks([chunk])
    return platform


def build_stone_farm(server: MLGServer, x0: int, z0: int,
                     y: int | None = None) -> ClockCircuit:
    """A Shulkercraft-style cobblestone farm on a 4-second redstone timer.

    Every 80 ticks the clock fires: pistons cycle, the gate network
    evaluates, a slab of freshly generated cobblestone is broken into item
    entities, and the generator refills — continuous block add/remove plus
    item pressure.
    """
    world = server.world
    if y is None:
        y = world.column_height(x0, z0) + 1
    width = 6
    # The generator bed, its piston row (facing +z) and the wire.
    Blocks.stamp(x0 + np.arange(width), z0, y, [
        (0, -1, 0, Block.STONE, 0), (0, 0, 0, Block.COBBLESTONE, 0),
        (0, 0, 1, Block.PISTON, 4), (0, 0, -1, Block.REDSTONE_WIRE, 0),
    ]).write(world)
    clock = ClockCircuit(
        period_ticks=FARM_CLOCK_TICKS,
        phase_ticks=int(server.rng.integers(0, FARM_CLOCK_TICKS)),
        # The full gate network behind the timer: item filters, comparator
        # chains, and the piston bus all re-evaluate on each 4 s pulse.
        gate_count=20_000,
        sources=[(x0, y, z0 - 1)],
        pistons=[(x0 + i, y, z0 + 1) for i in range(width)],
    )
    server.redstone.add_clock(clock, server.clock.now_us)

    def harvest(server_: MLGServer, tick_index: int, report: WorkReport,
                _clock=clock, _x0=x0, _y=y, _z0=z0, _w=width) -> None:
        # Harvest on the clock's pulse: break the cobble row into items,
        # then refill the generator (two block writes per column).
        if _clock.period_ticks and tick_index % _clock.period_ticks != (
            _clock.phase_ticks + 1
        ) % _clock.period_ticks:
            return
        for i in range(_w):
            change = server_.world.set_block(_x0 + i, _y, _z0, Block.AIR)
            if change is not None:
                report.add(Op.BLOCK_ADD_REMOVE)
                server_.entities.spawn(
                    EntityKind.ITEM, _x0 + i + 0.5, _y + 0.2, _z0 + 0.5,
                    vy=0.08,
                )
            server_.world.set_block(_x0 + i, _y, _z0, Block.COBBLESTONE)
            report.add(Op.BLOCK_ADD_REMOVE)
        _absorb_items(
            server_, report, _x0 + _w / 2, _z0 + 0.5, radius=8.0,
            min_age_ticks=100,
        )

    server.add_tick_hook(harvest)
    return clock


KELP_CUT_DY = 5  #: stalks are cut this high above a kelp farm's floor


def kelp_farm_blocks(x0: int, z0: int, y_base: int = 40,
                     width: int = 4) -> Blocks:
    """Water columns over stone with kelp at the bottom and an observer
    just above the cut height, then the collection channel of flowing
    water pushing toward the sorter side."""
    span = 2 * np.arange(width)
    observer = KELP_CUT_DY + 1
    columns = Blocks.stamp(
        x0 + np.repeat(span, width), z0 + np.tile(span, width), y_base,
        [(0, -1, 0, Block.STONE, 0), (0, 0, 0, Block.KELP, 0),
         *((0, dy, 0, Block.WATER_SOURCE, 0) for dy in range(1, 8)
           if dy != observer), (0, observer, 0, Block.OBSERVER, 0)])
    run = np.arange(width * 2 + 2)
    channel = Blocks.stamp(x0 - 1 + run, z0 - 2, y_base, [
        (0, -1, 0, Block.STONE, 0), (0, 0, 0, Block.WATER_FLOW, 0)])
    channel.auxs[1::2] = np.maximum(1, 7 - run // 2)
    return Blocks.concat((columns, channel))


def build_kelp_farm(server: MLGServer, x0: int, z0: int,
                    y_base: int = 40) -> list[tuple[int, int]]:
    """A Mumbo-Jumbo-style kelp farm: water columns, observers, flow channel.

    Event-based activation (§3.3.1): kelp grows via random ticks; when a
    stalk reaches the cutoff height an observer fires, the stalk is cut,
    and the items ride flowing water toward the collection end.
    """
    width = 4
    cut_y = y_base + KELP_CUT_DY
    blocks = kelp_farm_blocks(x0, z0, y_base, width)
    blocks.write(server.world)
    top = blocks.ids == Block.OBSERVER
    columns = list(zip(blocks.xs[top].tolist(), blocks.zs[top].tolist()))
    for x, z in columns:
        server.redstone.register_observer(x, cut_y + 1, z)

    def cut_kelp(server_: MLGServer, tick_index: int, report: WorkReport,
                 _columns=tuple(columns), _cut=cut_y,
                 _cx=x0 + width, _cz=z0 - 2) -> None:
        for x, z in _columns:
            if server_.world.get_block(x, _cut, z) == Block.KELP:
                server_.world.set_block(x, _cut, z, Block.WATER_SOURCE)
                report.add(Op.BLOCK_ADD_REMOVE)
                report.add(Op.REDSTONE, 12)  # observer + piston pulse
                server_.entities.spawn(
                    EntityKind.ITEM, x + 0.5, _cut + 0.3, z + 0.5
                )
        if tick_index % 8 == 0:
            # Hoppers at the end of the collection channel.
            _absorb_items(
                server_, report, _cx, _cz + 0.5, radius=12.0,
                min_age_ticks=100,
            )

    server.add_tick_hook(cut_kelp)
    return columns


def build_item_sorter(server: MLGServer, x0: int, z0: int,
                      y: int | None = None, radius: float = 24.0) -> None:
    """A Mysticat-style item sorter: hoppers absorbing nearby item entities.

    Event-based: every item pulled through the hopper line costs a chain
    of container checks (block updates) and a comparator pulse.
    """
    world = server.world
    if y is None:
        y = world.column_height(x0, z0) + 1
    Blocks.stamp(x0 + np.arange(8), z0, y, [
        (0, -1, 0, Block.HOPPER, 0), (0, -2, 0, Block.CHEST, 0),
    ]).write(world)

    def absorb(server_: MLGServer, tick_index: int, report: WorkReport,
               _x=x0 + 4.0, _z=z0 + 0.5, _y=float(y), _r=radius) -> None:
        # Hoppers pull at 2.5 items/s each; we sweep the catchment area.
        if tick_index % 8 != 0:
            return
        items = [
            e
            for e in server_.entities.entities_near(_x, _y, _z, _r)
            if e.kind == EntityKind.ITEM
        ]
        for item in items[:16]:
            server_.entities.remove(item)
            server_.entities.collected_items += 1
            report.add(Op.BLOCK_UPDATE, 8)  # hopper/container checks
            report.add(Op.REDSTONE, 4)  # comparator pulse

    server.add_tick_hook(absorb)


@dataclass
class LagMachine:
    """The Lag world's machine: fast clocks driving dense gate networks.

    The design follows the paper's description (§3.3.1): "many logic-gate
    constructs in a small area to cause a high volume of simulation rule
    activations", built from *non-malicious* rules, pulsing every other
    tick ("parts which are only simulated every other tick", §5.3).

    The update-suppression feedback reproduces the crash mode: while the
    server keeps pulse ticks under ``grace_us`` the cascade settles each
    cycle and the load is stable; once ticks stretch past the grace window
    (a throttled cloud node), overlapping cascades re-trigger each other
    and the gate volume multiplies until clients time out (§5.3's AWS
    crash).
    """

    clocks: list[ClockCircuit] = field(default_factory=list)
    base_gates: int = 0
    grace_us: int = 2_000_000
    growth: float = 3.0
    decay: float = 0.85
    max_gates_per_clock: int = 50_000_000
    #: Consecutive sub-grace ticks needed before the storm decays.
    _calm_ticks: int = field(default=0, repr=False)

    def feedback(
        self, server: MLGServer, tick_index: int, report: WorkReport
    ) -> None:
        last = server.loop.last_record
        if last is None:
            return
        per_clock_base = max(1, self.base_gates // max(1, len(self.clocks)))
        if last.duration_us > self.grace_us:
            self._calm_ticks = 0
            for clock in self.clocks:
                clock.gate_count = min(
                    self.max_gates_per_clock,
                    int(clock.gate_count * self.growth) + 1,
                )
        else:
            # Pulse ticks alternate with near-empty ticks; only a sustained
            # calm window means the cascades actually settled.
            self._calm_ticks += 1
            if self._calm_ticks >= 3:
                for clock in self.clocks:
                    clock.gate_count = max(
                        per_clock_base, int(clock.gate_count * self.decay)
                    )


def build_lag_machine(
    server: MLGServer,
    x0: int,
    z0: int,
    total_gates: int = 850_000,
    n_clocks: int = 16,
    y: int = 70,
) -> LagMachine:
    """Erect the Lag machine and wire its feedback hook into the server."""
    machine = LagMachine(base_gates=total_gates)
    per_clock = max(1, total_gates // n_clocks)
    world = server.world
    for k in range(n_clocks):
        x = x0 + (k % 4) * 3
        z = z0 + (k // 4) * 3
        world.set_block(x, y - 1, z, Block.STONE, log=False)
        world.set_block(x, y, z, Block.REDSTONE_TORCH, log=False)
        world.set_block(x + 1, y, z, Block.REDSTONE_WIRE, log=False)
        clock = ClockCircuit(
            period_ticks=2,
            phase_ticks=0,
            gate_count=per_clock,
            sources=[(x + 1, y, z)],
            gate_op=Op.BLOCK_UPDATE,
        )
        server.redstone.add_clock(clock, server.clock.now_us)
        machine.clocks.append(clock)
    server.add_tick_hook(machine.feedback)
    return machine
