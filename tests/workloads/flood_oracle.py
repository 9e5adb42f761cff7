"""The Flood world's column-by-column builder as it stood in ``src/``
before each terrace run became one cuboid, verbatim: the oracle of
``test_flood_build.py``.

``ScalarFloodWorkload`` is ``FloodWorkload`` with the old
``create_world``: the terraced floor is two ``World.fill`` calls per x
column (stone, then its water bed), 125 fills at scale 1.  Nothing here
is imported by ``src/``.
"""

from repro.mlg.blocks import Block
from repro.mlg.world import World
from repro.workloads import FloodWorkload


class ScalarFloodWorkload(FloodWorkload):
    """``FloodWorkload`` built one x column at a time, as it was."""

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
        # Terraced floor with a one-block water bed on every step.
        for x in range(x0, x1 + 1):
            floor_y = self._floor_y(x, gate_lo, gate_hi)
            world.fill(x, 4, z0, x, floor_y, z1, Block.STONE)
            world.fill(x, floor_y + 1, z0, x, floor_y + 1, z1,
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
