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

from repro.mlg.blocks import Block
from repro.mlg.redstone import ClockCircuit
from repro.mlg.server import MLGServer
from repro.mlg.spawning import SpawnPlatform
from repro.mlg.entity import EntityKind
from repro.mlg.workreport import Op, WorkReport

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


def _platform(server: MLGServer, x0: int, y: int, z0: int, size: int,
              block: int = Block.OBSIDIAN) -> None:
    """A solid platform with a light-blocking roof three blocks up."""
    for x in range(x0, x0 + size):
        for z in range(z0, z0 + size):
            server.world.set_block(x, y - 1, z, block, log=False)
            server.world.set_block(x, y + 3, z, Block.STONE, log=False)
            for dy in range(0, 3):
                server.world.set_block(x, y + dy, z, Block.AIR, log=False)


def build_entity_farm(server: MLGServer, x0: int, z0: int,
                      y: int = 80) -> SpawnPlatform:
    """A gnembon-style hostile mob farm: dark platform, funnel, kill drop.

    Spawned mobs path toward the kill chamber at the platform corner; on
    arrival they die and drop items (the farm's yield).  The spawning is
    "driven" (§3.3.1): the platform boosts attempts and manipulates mob
    pathfinding via the goal.
    """
    size = 8
    _platform(server, x0, y, z0, size)
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
    # The generator bed and its piston row.
    for i in range(width):
        world.set_block(x0 + i, y - 1, z0, Block.STONE, log=False)
        world.set_block(x0 + i, y, z0, Block.COBBLESTONE, log=False)
        world.set_block(x0 + i, y, z0 + 1, Block.PISTON, log=False)
        world.set_aux(x0 + i, y, z0 + 1, 4)  # face +z
        world.set_block(x0 + i, y, z0 - 1, Block.REDSTONE_WIRE, log=False)
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


def build_kelp_farm(server: MLGServer, x0: int, z0: int,
                    y_base: int = 40) -> list[tuple[int, int]]:
    """A Mumbo-Jumbo-style kelp farm: water columns, observers, flow channel.

    Event-based activation (§3.3.1): kelp grows via random ticks; when a
    stalk reaches the cutoff height an observer fires, the stalk is cut,
    and the items ride flowing water toward the collection end.
    """
    world = server.world
    columns: list[tuple[int, int]] = []
    width = 4
    cut_y = y_base + 5
    for i in range(width):
        for j in range(width):
            x, z = x0 + i * 2, z0 + j * 2
            # Water column enclosed in glass with kelp at the bottom.
            world.set_block(x, y_base - 1, z, Block.STONE, log=False)
            for dy in range(0, 8):
                world.set_block(x, y_base + dy, z, Block.WATER_SOURCE,
                                log=False)
            world.set_block(x, y_base, z, Block.KELP, log=False)
            world.set_block(x, cut_y + 1, z, Block.OBSERVER, log=False)
            server.redstone.register_observer(x, cut_y + 1, z)
            columns.append((x, z))
    # The collection channel: flowing water pushing toward the sorter side.
    for i in range(width * 2 + 2):
        world.set_block(x0 - 1 + i, y_base - 1, z0 - 2, Block.STONE,
                        log=False)
        world.set_block(x0 - 1 + i, y_base, z0 - 2, Block.WATER_FLOW,
                        aux=max(1, 7 - i // 2), log=False)

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
    for i in range(8):
        world.set_block(x0 + i, y - 1, z0, Block.HOPPER, log=False)
        world.set_block(x0 + i, y - 2, z0, Block.CHEST, log=False)

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
