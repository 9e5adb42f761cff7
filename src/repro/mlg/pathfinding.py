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

    def _neighbors(self, x: int, y: int, z: int):
        for dx, dz in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, nz = x + dx, z + dz
            # Same level, step up, or step/fall down (up to 3).
            for dy in (0, 1, -1, -2, -3):
                ny = y + dy
                if ny < 1:
                    continue
                if self.is_walkable(nx, ny, nz):
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
            for neighbor in self._neighbors(*current):
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
