"""Scalar-vs-batched parity for mob AI, A* and farm platforms.

The entity tick steers every mob in one masked pass over the store's
navigation columns, A* reads a walkability window gathered once per
search, and the spawn engine decides kills and hopper absorption from one
distance matrix.  The per-mob and per-platform Python loops they replaced
live on *here*, verbatim, as the oracle: patched onto a second server,
they must produce the bit-identical run — the contract that makes the
batching a pure performance change rather than a simulation-model change
(the ``OldStyleBot`` pattern of ``test_transport.py``).
"""

import heapq
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.mlg.entity_manager as entity_manager
import repro.mlg.pathfinding as pathfinding
from repro.cloud.providers import get_environment
from repro.emulation.swarm import BotSwarm
from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import Entity, EntityKind
from repro.mlg.entity_manager import REPATH_INTERVAL, EntityManager
from repro.mlg.entity_store import KIND_MOB
from repro.mlg.lighting import LightEngine
from repro.mlg.pathfinding import PathFinder, PathResult
from repro.mlg.server import MLGServer
from repro.mlg.spawning import SpawnEngine, SpawnPlatform
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World
from repro.persistence.store import world_hash
from repro.simtime import SimClock, s_to_us
from repro.workloads import get_workload

# -- the oracle: the scalar code this PR's batching replaced, verbatim ---------


class OldStyleEntity(Entity):
    """The handle as it was: goal, path and path index all lived on it
    (``goal`` stays the store-backed property; it reads the same), and
    platforms asked it for its distance to their goal."""

    __slots__ = ("path_index",)

    def __init__(self, store, slot, eid):
        super().__init__(store, slot, eid)
        self.path_index = 0

    def distance_sq_to(self, x: float, y: float, z: float) -> float:
        store, slot = self._store, self._slot
        dx = store.x[slot] - x
        dy = store.y[slot] - y
        dz = store.z[slot] - z
        return float(dx * dx + dy * dy + dz * dz)


def _tick_mob_ai(self, slot: int, report: WorkReport) -> None:
    """Steer one mob: pathfind toward its goal or wander."""
    store = self.store
    mob = self._handles[slot]
    report.add(Op.ENTITY_UPDATE)
    store.age[slot] += 1
    age_plus_eid = int(store.age[slot]) + mob.eid
    needs_path = (
        mob.goal is not None
        and (mob.path is None or mob.path_index >= len(mob.path))
        and age_plus_eid % REPATH_INTERVAL == 0
    )
    if needs_path:
        result = self.pathfinder.find_path(
            mob.block_pos, mob.goal, report
        )
        mob.path = result.path if result else None
        mob.path_index = 0
    if mob.path and mob.path_index < len(mob.path):
        tx, ty, tz = mob.path[mob.path_index]
        dx = (tx + 0.5) - float(store.x[slot])
        dz = (tz + 0.5) - float(store.z[slot])
        dist = max(1e-6, (dx * dx + dz * dz) ** 0.5)
        speed = 0.15
        store.vx[slot] = dx / dist * speed
        store.vz[slot] = dz / dist * speed
        if dist < 0.4:
            mob.path_index += 1
    elif mob.goal is None and age_plus_eid % 60 == 0:
        # Idle wander impulse.
        angle = self.rng.random() * 2 * np.pi
        store.vx[slot] = np.cos(angle) * 0.08
        store.vz[slot] = np.sin(angle) * 0.08


def _steer_mobs_scalar(self, report: WorkReport) -> None:
    """The old head of ``EntityManager.tick``: one AI call per live mob."""
    for slot in self.store.alive_slots(KIND_MOB):
        _tick_mob_ai(self, int(slot), report)


def _platform_spawning(self, report: WorkReport) -> int:
    spawned = 0
    for platform in self.platforms:
        platform._mobs = [m for m in platform._mobs if m.alive]
        platform._accumulator += platform.attempts_per_tick
        attempts = int(platform._accumulator)
        platform._accumulator -= attempts
        for _ in range(attempts):
            report.add(Op.SPAWN_ATTEMPT)
            if len(platform._mobs) >= platform.local_cap:
                continue
            x = int(self.rng.integers(platform.x0, platform.x1 + 1))
            z = int(self.rng.integers(platform.z0, platform.z1 + 1))
            if not self.can_spawn_at(x, platform.y, z):
                continue
            mob = self.entities.spawn(
                EntityKind.MOB, x + 0.5, float(platform.y), z + 0.5
            )
            mob.goal = platform.goal
            platform._mobs.append(mob)
            spawned += 1
    return spawned


def _platform_kills(self, report: WorkReport) -> None:
    """Kill mobs at their platform's goal; drop and later collect items."""
    for platform in self.platforms:
        if platform.goal is None:
            continue
        gx, gy, gz = platform.goal
        for mob in platform._mobs:
            if not mob.alive:
                continue
            if mob.distance_sq_to(gx + 0.5, gy, gz + 0.5) < 2.5:
                self.entities.remove(mob)
                self.kills_total += 1
                for _ in range(platform.drops_per_kill):
                    self.entities.spawn(
                        EntityKind.ITEM,
                        gx + 0.5 + float(self.rng.uniform(-0.3, 0.3)),
                        float(gy),
                        gz + 0.5 + float(self.rng.uniform(-0.3, 0.3)),
                        vy=0.1,
                    )
        # The farm's hopper line absorbs settled drops (keeps the item
        # population bounded, as a real farm's collection system does).
        absorbed = self.entities.absorb_items(
            gx + 0.5,
            gz + 0.5,
            radius=6.0,
            min_age_ticks=platform.collect_after_ticks,
        )
        if absorbed:
            report.add(Op.BLOCK_UPDATE, 8 * absorbed)


class ScalarPathFinder(PathFinder):
    """A* as it was: every cell read through ``is_walkable``."""

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

    def find_path(self, start, goal, report=None):
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


# -- (a) the farm cell, batched against the oracle -----------------------------


def _run_farm(seed: int, oracle: bool, monkeypatch, duration_s: float = 30.0):
    """One farm iteration as ``run_iteration`` drives it, keeping hold of
    the server; ``oracle`` swaps the scalar code in before the first tick."""
    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(entity_manager, "Entity", OldStyleEntity)
            patch.setattr(entity_manager, "PathFinder", ScalarPathFinder)
            patch.setattr(EntityManager, "_steer_mobs", _steer_mobs_scalar)
            patch.setattr(SpawnEngine, "_platform_spawning", _platform_spawning)
            patch.setattr(SpawnEngine, "_platform_kills", _platform_kills)
        env = get_environment("aws-t3.large")
        clock = SimClock()
        workload = get_workload("farm", scale=1.0)
        world = workload.create_world(seed)
        server = MLGServer(
            "vanilla", env.create_machine(seed=seed), world=world,
            clock=clock, seed=seed,
        )
        swarm = BotSwarm(
            server, env.network, np.random.default_rng(seed ^ 0x5EED)
        )
        workload.install(server, swarm)
        if oracle:  # the per-platform mob lists the owner column replaced
            for platform in server.spawning.platforms:
                platform._mobs = []
        server.start()
        collected = []
        records = []
        deadline = clock.now_us + s_to_us(duration_s)
        while clock.now_us < deadline and server.running:
            records.append(server.tick())
            swarm.step()
            collected.append(server.entities.collected_items)
    stats = server.net.stats
    return {
        "ticks": [
            (r.duration_us, r.work_us, r.breakdown_us, r.entities)
            for r in records
        ],
        "packets": (dict(stats.counts), dict(stats.bytes_)),
        "kills_total": server.spawning.kills_total,
        "collected_items": collected,
        "entities": sorted(
            (e.eid, e.kind, e.x, e.y, e.z, e.vx, e.vz, e.age_ticks)
            for e in server.entities.entities_near(0.0, 0.0, 0.0, math.inf)
        ),
        "world_hash": world_hash(server.world),
        "rng": server.rng.bit_generator.state,
    }


class TestFarmCellParity:
    @pytest.mark.parametrize("seed", [1, 2, 7])
    def test_batched_run_is_the_scalar_run(self, seed, monkeypatch):
        batched = _run_farm(seed, oracle=False, monkeypatch=monkeypatch)
        scalar = _run_farm(seed, oracle=True, monkeypatch=monkeypatch)
        assert batched["kills_total"] > 100, "the farm must be killing"
        assert sum(batched["collected_items"]) > 100
        assert len(batched["entities"]) > 200
        for key in batched:
            assert batched[key] == scalar[key], key


# -- (b) the walkability window changes speed, never the search ---------------


@lru_cache(maxsize=None)
def _random_terrain(seed: int) -> World:
    """Rolling stone with pits, pillars, ponds and roofs on a 3x3 chunk
    patch around the origin with two chunks left unloaded, plus slabs at
    the bottom and the top of the world."""
    rng = np.random.default_rng(seed)
    world = World()
    for cx in (-2, -1, 0):
        for cz in (-2, -1, 0):
            if (cx, cz) in ((-2, 0), (0, -2)):
                continue
            chunk = world.ensure_chunk(cx, cz)
            heights = 58 + rng.integers(0, 4, size=(16, 16))
            for lx in range(16):
                for lz in range(16):
                    chunk.blocks[lx, lz, : heights[lx, lz]] = Block.STONE
            pond = rng.random((16, 16)) < 0.1
            chunk.blocks[:, :, 57][pond] = Block.WATER_SOURCE
            chunk.blocks[:, :, 58:62][pond] = Block.AIR
            chunk.blocks[:, :, 63][rng.random((16, 16)) < 0.15] = Block.STONE
            chunk.blocks[:, :, 0:2] = Block.STONE
            chunk.blocks[:, :, 2:6] = Block.AIR
            chunk.blocks[:, :, WORLD_HEIGHT - 4] = Block.STONE
            chunk.heightmap[:] = column_tops(chunk.blocks != Block.AIR)
    return world


_cell = st.tuples(
    st.integers(-34, 18),
    st.sampled_from([0, 1, 2, 3, 57, 58, 59, 60, 61, 62, 64,
                     WORLD_HEIGHT - 3, WORLD_HEIGHT - 2, WORLD_HEIGHT - 1]),
    st.integers(-34, 18),
)


class TestWindowParity:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 5), start=_cell, goal=_cell,
           far=st.booleans())
    def test_window_fallback_and_scalar_agree(self, seed, start, goal, far):
        world = _random_terrain(seed)
        if far:  # a goal well outside the loaded world
            goal = (goal[0] + 400, goal[1], goal[2] - 300)
        # Stand the start on its column's surface most of the time, so
        # searches run instead of failing on the first cell.
        if start[1] in (58, 59, 60, 61):
            start = (start[0], world.column_height(start[0], start[2]) or 1,
                     start[2])
        results = []
        for finder in (
            PathFinder(world, max_expansions=120),
            ScalarPathFinder(world, max_expansions=120),
        ):
            report = WorkReport()
            result = finder.find_path(start, goal, report)
            results.append(
                (result.path, result.expanded, result.found, report.counts)
            )
        assert results[0] == results[1]

    def test_every_window_size_finds_the_same_path(self, monkeypatch):
        world = _random_terrain(3)
        start = (-20, world.column_height(-20, -20), -20)
        goal = (-9, world.column_height(-9, -12), -12)
        expected = ScalarPathFinder(world).find_path(start, goal)
        assert expected.found and expected.expanded > 20
        # From "only the start cell" (everything else falls back to
        # scalar reads) to "the whole search".
        for margin, reach in ((0, 0), (1, 2), (2, 16), (12, 40)):
            monkeypatch.setattr(pathfinding, "WINDOW_MARGIN", margin)
            monkeypatch.setattr(pathfinding, "WINDOW_REACH", reach)
            result = PathFinder(world).find_path(start, goal)
            assert (result.path, result.expanded) == (
                expected.path, expected.expanded,
            ), (margin, reach)


# -- (c) float and RNG-stream pins the batched AI rests on ---------------------


def _flat_world(ground_y=60, size=2):
    world = World()
    edge = 16 * size - 1
    world.fill(0, 0, 0, edge, ground_y - 1, edge, Block.STONE)
    return world


class TestBatchPins:
    def test_wander_batch_consumes_the_stream_like_scalar_draws(self):
        for k in (1, 2, 7, 33):
            batch_rng = np.random.default_rng(42)
            scalar_rng = np.random.default_rng(42)
            angles = batch_rng.random(k) * 2 * np.pi
            for i in range(k):
                angle = scalar_rng.random() * 2 * np.pi
                assert angles[i] == angle
                assert np.cos(angles)[i] * 0.08 == np.cos(angle) * 0.08
                assert np.sin(angles)[i] * 0.08 == np.sin(angle) * 0.08
            assert (
                batch_rng.bit_generator.state == scalar_rng.bit_generator.state
            )

    def test_float_power_is_the_scalar_pow(self):
        # The scalar AI took distances with Python's ``** 0.5`` (libm
        # pow); np.sqrt and a vectorised np.power differ from it in the
        # last ulp about once in a thousand values.
        values = np.random.default_rng(0).random(200_000) * 50.0
        batched = np.float_power(values, 0.5)
        assert batched.tolist() == [v ** 0.5 for v in values.tolist()]

    def test_mobs_steer_and_wander_identically(self, monkeypatch):
        # ~30k steering evaluations: enough for a distance that rounds
        # unlike the scalar ``** 0.5`` (np.sqrt does, once in a thousand)
        # to show up in a final position.
        finals = []
        for oracle in (False, True):
            with monkeypatch.context() as patch:
                if oracle:
                    patch.setattr(entity_manager, "Entity", OldStyleEntity)
                    patch.setattr(
                        EntityManager, "_steer_mobs", _steer_mobs_scalar
                    )
                world = _flat_world(size=3)
                mgr = EntityManager(world, np.random.default_rng(9))
                place = np.random.default_rng(4)
                for i in range(120):
                    x, z = place.uniform(3.0, 30.0, size=2)
                    mob = mgr.spawn(EntityKind.MOB, x, 60.0, z)
                    if i % 9:
                        mob.goal = (int(x) + 9, 60, int(z) + 7)
                report = WorkReport()
                for tick in range(300):
                    mgr.begin_tick()
                    mgr.tick(report)
                    if tick == 150:  # a goal withdrawn mid-path, one moved
                        mgr.get(2).goal = None
                        mgr.get(3).goal = (5, 60, 5)
            finals.append(
                (
                    sorted(
                        (e.eid, e.x, e.y, e.z, e.vx, e.vz, e.age_ticks)
                        for e in mgr.entities_near(0.0, 0.0, 0.0, math.inf)
                    ),
                    report.counts,
                    mgr.rng.bit_generator.state,
                )
            )
        assert finals[0] == finals[1]
        assert finals[0][1][Op.PATHFIND_NODE] > 1000
        # Batch sizes reach the report as plain numbers, not numpy scalars.
        assert {type(n) for n in finals[0][1].values()} == {float}


# -- (d) overlapping platform catchments ---------------------------------------


class TestPlatformMatrix:
    def _engine(self):
        world = _flat_world()
        entities = EntityManager(world, np.random.default_rng(1))
        engine = SpawnEngine(
            world, LightEngine(world), entities, np.random.default_rng(2)
        )
        return engine, entities

    def test_overlapping_catchments_absorb_each_item_once_first_wins(self):
        engine, entities = self._engine()
        # Two kill chambers three blocks apart: every item below is in
        # reach of both hopper lines.  The first settles drops late.
        engine.add_platform(SpawnPlatform(
            0, 0, 8, 8, y=61, attempts_per_tick=0.0, goal=(8, 61, 8),
            collect_after_ticks=200,
        ))
        engine.add_platform(SpawnPlatform(
            8, 8, 16, 16, y=61, attempts_per_tick=0.0, goal=(11, 61, 8),
            collect_after_ticks=10,
        ))
        young = entities.spawn(EntityKind.ITEM, 9.5, 61.0, 8.5)
        settled = entities.spawn(EntityKind.ITEM, 10.5, 61.0, 8.5)
        old = entities.spawn(EntityKind.ITEM, 9.0, 61.0, 9.5)
        fresh = entities.spawn(EntityKind.ITEM, 10.0, 61.0, 8.0)
        young.age_ticks, settled.age_ticks = 50, 150
        old.age_ticks, fresh.age_ticks = 300, 5
        report = WorkReport()
        entities.begin_tick()
        engine.tick([], report)
        # `old` is past both settle times: the first platform takes it,
        # and the second takes only what the first left.
        assert entities.removed_this_tick == [old, young, settled]
        assert fresh.alive
        assert entities.collected_items == 3
        assert report.get(Op.BLOCK_UPDATE) == 8 * 3

    def test_kills_run_in_platform_then_spawn_order(self):
        engine, entities = self._engine()
        for goal in ((4, 61, 4), (20, 61, 20)):
            engine.add_platform(SpawnPlatform(
                0, 0, 8, 8, y=61, attempts_per_tick=0.0, goal=goal,
                drops_per_kill=1,
            ))
        # Spawn order a, b, c; slots are recycled so that slot order and
        # spawn order disagree.
        filler = entities.spawn(EntityKind.MOB, 1.0, 61.0, 1.0)
        a = entities.spawn(EntityKind.MOB, 20.5, 61.0, 20.5)
        entities.remove(filler)
        entities.tick(WorkReport())
        b = entities.spawn(EntityKind.MOB, 4.5, 61.0, 4.5)
        c = entities.spawn(EntityKind.MOB, 4.2, 61.0, 4.4)
        far = entities.spawn(EntityKind.MOB, 7.5, 61.0, 7.5)
        a.owner, b.owner, c.owner, far.owner = 1, 0, 0, 0
        assert b._slot < a._slot < c._slot
        entities.begin_tick()
        engine.tick([], WorkReport())
        assert entities.removed_this_tick == [b, c, a]
        assert far.alive and engine.kills_total == 3
        drops = sorted(
            entities.entities_of(EntityKind.ITEM), key=lambda d: d.eid
        )
        assert [d.x > 12 for d in drops] == [False, False, True]

    def test_platform_cap_counts_live_owned_mobs(self):
        engine, entities = self._engine()
        world = engine.world
        for x in range(0, 9):
            for z in range(0, 9):
                world.set_block(x, 64, z, Block.STONE, log=False)
        engine.lights.light_chunks([world.get_chunk(0, 0)])
        engine.add_platform(SpawnPlatform(
            0, 0, 8, 8, y=60, attempts_per_tick=3.0, local_cap=4,
        ))
        report = WorkReport()
        for _ in range(20):
            engine.tick([], report)
        assert entities.count(EntityKind.MOB) == 4
        mobs = entities.entities_of(EntityKind.MOB)
        assert {m.owner for m in mobs} == {0}
        entities.remove(mobs[0])  # dead but not yet reaped: not counted
        engine.tick([], report)
        assert entities.count(EntityKind.MOB) == 4
