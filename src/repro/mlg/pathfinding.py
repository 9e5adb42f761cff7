"""Dynamic A* pathfinding on the voxel world (§2.2.3).

Static games precompute overlay graphs for NPC navigation; MLGs cannot,
because the terrain changes.  This module searches the live world on every
request and reports the number of expanded nodes, which is the work the
cost model charges for ("compute path-finding graphs dynamically, leading to
additional compute-intensive workload").
"""

from __future__ import annotations

import heapq

from repro.mlg.blocks import SOLID_LUT, Block
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["PathFinder", "PathResult"]

_WATER = (Block.WATER_SOURCE, Block.WATER_FLOW)
#: ``SOLID_LUT`` as a tuple: scalar lookups without a numpy round trip.
_SOLID = tuple(SOLID_LUT.tolist())
#: By block id: can a mob stand on it / does it leave body room.
_FLOOR = SOLID_LUT.copy()
_FLOOR[list(_WATER)] = True
_ROOM = ~SOLID_LUT
#: A search reads the box from its start toward its goal (at most
#: ``WINDOW_REACH`` cells a side) plus this margin in one gather; cells
#: outside it are read one by one, so the sizes affect speed only.
WINDOW_MARGIN = 2
WINDOW_REACH = 16
#: Horizontal steps from a node, in the order its neighbours are pushed.
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
#: Per step, the first walkable of: same level, step up, step or fall
#: down (up to 3); with the extra cost ``0.4 * |dy|`` of the move.
_CLIMBS = tuple((dy, 0.4 * abs(dy)) for dy in (0, 1, -1, -2, -3))


class PathResult:
    """Outcome of one A* search."""

    __slots__ = ("path", "expanded", "found")

    def __init__(
        self, path: list[tuple[int, int, int]], expanded: int, found: bool
    ) -> None:
        self.path = path
        self.expanded = expanded
        self.found = found

    def __bool__(self) -> bool:
        return self.found


class PathFinder:
    """A* over walkable voxel cells.

    A cell is walkable when it has a solid floor and two non-solid blocks of
    body room; mobs can also wade through water.  Step height is one block
    up or down (plus falls of up to three blocks).
    """

    def __init__(self, world: World, max_expansions: int = 400) -> None:
        self.world = world
        self.max_expansions = max_expansions

    def is_walkable(self, x: int, y: int, z: int) -> bool:
        """Can a mob stand at (occupy) this cell?"""
        get_block = self.world.get_block
        floor = get_block(x, y - 1, z)
        return (
            (_SOLID[floor] or floor in _WATER)
            and not _SOLID[get_block(x, y, z)]
            and not _SOLID[get_block(x, y + 1, z)]
        )

    def _window(self, start: tuple[int, int, int], goal: tuple[int, int, int]):
        """:meth:`is_walkable` of every cell around one search, gathered
        once: ``(flags, x0, y0, z0, nx, nz, ny)``, flags in x, z, y order."""
        lo = [max(min(a, b), a - WINDOW_REACH) for a, b in zip(start, goal)]
        hi = [min(max(a, b), a + WINDOW_REACH) for a, b in zip(start, goal)]
        x0, x1 = lo[0] - WINDOW_MARGIN, hi[0] + WINDOW_MARGIN
        z0, z1 = lo[2] - WINDOW_MARGIN, hi[2] + WINDOW_MARGIN
        # A step reaches y+1 and y-3; a cell needs its floor and headroom.
        y0, y1 = lo[1] - 4, hi[1] + 2
        blocks = self.world.blocks_cuboid(x0, y0, z0, x1, y1, z1)
        room = _ROOM.take(blocks)
        walkable = _FLOOR.take(blocks[:, :, :-2])
        walkable &= room[:, :, 1:-1]
        walkable &= room[:, :, 2:]
        return walkable.tobytes(), x0, y0 + 1, z0, *walkable.shape

    @staticmethod
    def _heuristic(a: tuple[int, int, int], b: tuple[int, int, int]) -> float:
        return (
            abs(a[0] - b[0]) + abs(a[1] - b[1]) * 0.5 + abs(a[2] - b[2])
        )

    def find_path(
        self,
        start: tuple[int, int, int],
        goal: tuple[int, int, int],
        report: WorkReport | None = None,
    ) -> PathResult:
        """A* from ``start`` to ``goal`` with a node-expansion budget.

        Always records the expansion count (even on failure) — failed
        searches still cost CPU, and in MLGs they are common because the
        terrain changes under the navigator.

        One loop: a node's neighbours are read from the window's bytes
        (``is_walkable`` outside it) and scored with :meth:`_heuristic`
        written out, in the same float-op order.
        """
        is_walkable = self.is_walkable
        if not is_walkable(*start):
            if report is not None:
                report.add(Op.PATHFIND_NODE, 1)
            return PathResult([], 1, False)
        flags, x0, y0, z0, wx, wz, wy = self._window(start, goal)
        gx, gy, gz = goal
        open_heap = [(self._heuristic(start, goal), 0, start)]
        came_from: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        g_score = {start: 0.0}
        expanded = 0
        counter = 0
        found = False
        current = start
        max_expansions = self.max_expansions
        heappop, heappush = heapq.heappop, heapq.heappush
        inf = float("inf")
        while open_heap and expanded < max_expansions:
            _, _, current = heappop(open_heap)
            expanded += 1
            if current == goal:
                found = True
                break
            cg = g_score[current]
            x, y, z = current
            for dx, dz in _STEPS:
                nx, nz = x + dx, z + dz
                inside = 0 <= nx - x0 < wx and 0 <= nz - z0 < wz
                column = ((nx - x0) * wz + nz - z0) * wy - y0
                for dy, climb in _CLIMBS:
                    ny = y + dy
                    if ny < 1:
                        continue
                    if (
                        flags[column + ny]
                        if inside and 0 <= ny - y0 < wy
                        else is_walkable(nx, ny, nz)
                    ):
                        neighbor = (nx, ny, nz)
                        tentative = cg + 1.0 + climb
                        if tentative < g_score.get(neighbor, inf):
                            g_score[neighbor] = tentative
                            came_from[neighbor] = current
                            counter += 1
                            h = abs(nx - gx) + abs(ny - gy) * 0.5 + abs(nz - gz)
                            heappush(
                                open_heap, (tentative + h, counter, neighbor)
                            )
                        break
        if report is not None:
            report.add(Op.PATHFIND_NODE, expanded)
        if not found:
            return PathResult([], expanded, False)
        path = [current]
        while current in came_from:
            current = came_from[current]
            path.append(current)
        path.reverse()
        return PathResult(path, expanded, True)
