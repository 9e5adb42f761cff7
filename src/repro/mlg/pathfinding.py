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
#: A search reads the box from its start toward its goal (at most
#: ``WINDOW_REACH`` cells a side) plus this margin in one gather; cells
#: outside it are read one by one, so the sizes affect speed only.
WINDOW_MARGIN = 2
WINDOW_REACH = 16


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
        solid = SOLID_LUT[blocks]
        floor = solid | (blocks == _WATER[0]) | (blocks == _WATER[1])
        walkable = floor[:, :, :-2] & ~solid[:, :, 1:-1] & ~solid[:, :, 2:]
        return walkable.tobytes(), x0, y0 + 1, z0, *walkable.shape

    def _neighbors(self, x: int, y: int, z: int, window):
        flags, x0, y0, z0, wx, wz, wy = window
        for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, nz = x + dx, z + dz
            inside = 0 <= nx - x0 < wx and 0 <= nz - z0 < wz
            column = ((nx - x0) * wz + nz - z0) * wy - y0
            # Same level, step up, or step/fall down (up to 3).
            for dy in (0, 1, -1, -2, -3):
                ny = y + dy
                if ny < 1:
                    continue
                if (
                    flags[column + ny]
                    if inside and 0 <= ny - y0 < wy
                    else self.is_walkable(nx, ny, nz)
                ):
                    yield nx, ny, nz
                    break

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
        """
        if not self.is_walkable(*start):
            if report is not None:
                report.add(Op.PATHFIND_NODE, 1)
            return PathResult([], 1, False)
        window = self._window(start, goal)
        open_heap: list[tuple[float, int, tuple[int, int, int]]] = []
        heapq.heappush(open_heap, (self._heuristic(start, goal), 0, start))
        came_from: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        g_score = {start: 0.0}
        expanded = 0
        counter = 0
        found = False
        current = start
        while open_heap and expanded < self.max_expansions:
            _, _, current = heapq.heappop(open_heap)
            expanded += 1
            if current == goal:
                found = True
                break
            cg = g_score[current]
            for neighbor in self._neighbors(*current, window):
                tentative = cg + 1.0 + 0.4 * abs(neighbor[1] - current[1])
                if tentative < g_score.get(neighbor, float("inf")):
                    g_score[neighbor] = tentative
                    came_from[neighbor] = current
                    counter += 1
                    heapq.heappush(
                        open_heap,
                        (
                            tentative + self._heuristic(neighbor, goal),
                            counter,
                            neighbor,
                        ),
                    )
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
