"""The Farm world's cell-by-cell builders as they stood in ``src/`` before
each construct became one bulk write, verbatim: the oracle of
``test_farm_build.py``.

Every block goes through a scalar ``World.set_block`` (and the pistons'
facing through ``set_aux``), and a chunk is generated, alone, when the
first write lands in it.  ``ScalarFarmWorkload`` is ``FarmWorkload`` with
the old ``install``: no chunk is generated ahead of the builders.  The
runtime pieces (spawn platforms, clocks, observers, tick hooks) are those
of the old builders too.  Nothing here is imported by ``src/``.
"""

from repro.mlg.blocks import Block
from repro.mlg.entity import EntityKind
from repro.mlg.redstone import ClockCircuit
from repro.mlg.server import MLGServer
from repro.mlg.spawning import SpawnPlatform
from repro.mlg.workreport import Op, WorkReport
from repro.workloads import FarmWorkload
from repro.workloads.constructs import FARM_CLOCK_TICKS, _absorb_items


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
        gate_count=20_000,
        sources=[(x0, y, z0 - 1)],
        pistons=[(x0 + i, y, z0 + 1) for i in range(width)],
    )
    server.redstone.add_clock(clock, server.clock.now_us)

    def harvest(server_: MLGServer, tick_index: int, report: WorkReport,
                _clock=clock, _x0=x0, _y=y, _z0=z0, _w=width) -> None:
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
            _absorb_items(
                server_, report, _cx, _cz + 0.5, radius=12.0,
                min_age_ticks=100,
            )

    server.add_tick_hook(cut_kelp)
    return columns


def build_item_sorter(server: MLGServer, x0: int, z0: int,
                      y: int | None = None, radius: float = 24.0) -> None:
    world = server.world
    if y is None:
        y = world.column_height(x0, z0) + 1
    for i in range(8):
        world.set_block(x0 + i, y - 1, z0, Block.HOPPER, log=False)
        world.set_block(x0 + i, y - 2, z0, Block.CHEST, log=False)

    def absorb(server_: MLGServer, tick_index: int, report: WorkReport,
               _x=x0 + 4.0, _z=z0 + 0.5, _y=float(y), _r=radius) -> None:
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


class ScalarFarmWorkload(FarmWorkload):
    """``FarmWorkload`` built write by write, as it was."""

    def install(self, server, swarm) -> None:
        counts = self.counts()
        positions = self._ring_positions(
            sum(counts.values()), radius=56, center=(8, 8)
        )
        cursor = iter(positions)
        for _ in range(counts["entity_farm"]):
            x, z = next(cursor)
            build_entity_farm(server, x, z)
        for _ in range(counts["stone_farm"]):
            x, z = next(cursor)
            build_stone_farm(server, x, z)
        for _ in range(counts["kelp_farm"]):
            x, z = next(cursor)
            build_kelp_farm(server, x, z)
        for _ in range(counts["item_sorter"]):
            x, z = next(cursor)
            build_item_sorter(server, x, z)
        swarm.add_observer()
