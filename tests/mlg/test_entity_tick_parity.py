"""The entity tick's rewritten passes against their verbatim predecessors.

The physics kernel, water push, collision count, reap, ground scan, mob
steering, A* and platform kills were rewritten to make fewer
and cheaper numpy calls, doing the same float operations in the same order
and drawing the same RNG stream.  ``entity_oracle`` holds the code they
replaced; patched onto a second server, it must produce the same run tick
by tick: every store column byte for byte (so ``-0.0`` is not ``0.0``),
the free list and the slot of every handle, each tick's op counts in the
order they were first added, both RNG streams and the world.
"""

from collections import Counter

import entity_oracle
import numpy as np
import pytest

import repro.mlg.entity_manager as entity_manager
from repro.cloud.providers import get_environment
from repro.emulation.swarm import BotSwarm
from repro.mlg.blocks import Block
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import EntityKind
from repro.mlg.entity_manager import _ITEM_DESPAWN_TICKS, EntityManager
from repro.mlg.entity_store import FIELDS
from repro.mlg.fluids import FluidEngine
from repro.mlg.server import MLGServer
from repro.mlg.spawning import SpawnEngine
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World
from repro.persistence.store import world_hash
from repro.simtime import SimClock
from repro.tracing.tracer import NullTracer
from repro.workloads import get_workload

#: (workload, scale, ticks): the tnt cuboid is ignited at tick 400 and a
#: third of its height chains out by tick 560.
CELLS = (("control", 1.0, 400), ("farm", 1.0, 400), ("tnt", 0.3, 560))
SEEDS = (1, 2, 7)


class _CountsTape(NullTracer):
    """The untraced tracer, keeping each tick's op counts in order."""

    __slots__ = ("ticks",)

    def __init__(self):
        self.ticks = []

    def end_tick(self, record, report):
        self.ticks.append(list(report.counts.items()))


def _patch_oracle(patch):
    patch.setattr(EntityManager, "_tick_kernel", entity_oracle.tick_kernel)
    patch.setattr(
        EntityManager, "_apply_water_push", entity_oracle.apply_water_push
    )
    patch.setattr(
        EntityManager, "_count_collisions", entity_oracle.count_collisions
    )
    patch.setattr(EntityManager, "_reap", entity_oracle.reap)
    patch.setattr(EntityManager, "_steer_mobs", entity_oracle.steer_mobs)
    patch.setattr(entity_manager, "PathFinder", entity_oracle.OraclePathFinder)
    patch.setattr(
        World, "ground_and_loaded_bulk", entity_oracle.ground_and_loaded_bulk
    )
    patch.setattr(SpawnEngine, "_platform_kills", entity_oracle.platform_kills)


def _run(name, scale, ticks, seed, oracle, monkeypatch):
    """``ticks`` ticks of one cell as ``run_iteration`` drives it; returns
    everything the entity tick writes."""
    with monkeypatch.context() as patch:
        if oracle:
            _patch_oracle(patch)
        env = get_environment("aws-t3.large")
        workload = get_workload(name, scale=scale)
        server = MLGServer(
            "vanilla", env.create_machine(seed=seed),
            world=workload.create_world(seed), clock=SimClock(), seed=seed,
        )
        swarm_rng = np.random.default_rng(seed ^ 0x5EED)
        swarm = BotSwarm(server, env.network, swarm_rng)
        workload.install(server, swarm)
        server.tracer = tape = _CountsTape()
        server.start()
        for _ in range(ticks):
            server.tick()
            swarm.step()
    entities = server.entities
    store = entities.store
    return {
        "ticks": len(tape.ticks),
        "counts": tape.ticks,
        "store": {f: getattr(store, f).tobytes() for f, _ in FIELDS},
        "capacity": store.capacity,
        "free": list(store._free),
        "handles": [
            None if handle is None else (handle.eid, handle._slot)
            for handle in entities._handles
        ],
        "rng": server.rng.bit_generator.state,
        "swarm_rng": swarm_rng.bit_generator.state,
        "world_hash": world_hash(server.world),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name, scale, ticks", CELLS, ids=[cell[0] for cell in CELLS]
)
def test_rewritten_tick_is_the_oracle_tick(name, scale, ticks, seed,
                                           monkeypatch):
    new = _run(name, scale, ticks, seed, False, monkeypatch)
    old = _run(name, scale, ticks, seed, True, monkeypatch)
    assert new["ticks"] == ticks
    for key in old:
        assert new[key] == old[key], key
    # The cells reach the code under test.
    totals = {}
    for counts in new["counts"]:
        for op, n in counts:
            totals[op] = totals.get(op, 0.0) + n
    assert totals.get(Op.ENTITY_UPDATE, 0) > 0
    if name == "farm":
        assert totals[Op.COLLISION_PAIR] > 0
        assert totals[Op.PATHFIND_NODE] > 1000
        assert totals[Op.BLOCK_UPDATE] > 0  # hoppers absorbed items
    if name == "tnt":
        assert totals[Op.TNT_UPDATE] > 1000
        assert totals[Op.ITEM_UPDATE] > 1000


# -- what 400 ticks of a cell do not reach ------------------------------------


def _scenario_world():
    """Stone to y=60 on 4x4 chunks around the origin with chunk (1, -2)
    left unloaded, a flowing channel and a source pond on the surface,
    and a shaft down to bedrock level."""
    world = World()
    world.fill(-32, 0, -32, 31, 59, 31, Block.STONE)
    world.unload_chunk(1, -2)
    for i, x in enumerate(range(-24, 12)):  # level falling along +x
        world.set_block(x, 60, -3, Block.WATER_FLOW, aux=36 - i)
    world.fill(-12, 60, 4, -7, 60, 9, Block.WATER_SOURCE)
    world.fill(4, 1, 4, 5, 59, 5, Block.AIR)
    return world


def _scenario(oracle, monkeypatch, ticks=300):
    """Items despawning, crowding, riding water, falling far and from
    above the world; mobs walking, wandering and bumping into an unloaded
    chunk; TNT; and entities removed and spawned between ticks."""
    with monkeypatch.context() as patch:
        if oracle:
            _patch_oracle(patch)
        world = _scenario_world()
        fluids = FluidEngine(world)
        mgr = EntityManager(
            world, np.random.default_rng(3), fluid_flow=fluids.flow_vector
        )
        place = np.random.default_rng(11)
        for i in range(60):  # six stacks of ten, half of them wet
            x, z = (-20.5 + 5 * (i // 10), -2.5 - 6 * (i // 30))
            mgr.spawn(EntityKind.ITEM, x, 60.2, z)
        for i in range(8):
            item = mgr.spawn(EntityKind.ITEM, -0.5 - i, 61.0, 0.5)
            item.age_ticks = _ITEM_DESPAWN_TICKS - 3 * i
        for x, y, z in place.uniform((-30, 61, -30), (14, 95, 14), (20, 3)):
            mgr.spawn(EntityKind.ITEM, x, y, z, vx=-0.05, vz=0.05)
        # Falls deeper than the scan (down the shaft), and from above it.
        mgr.spawn(EntityKind.ITEM, 4.5, 80.0, 4.5, vy=-11.0)
        mgr.spawn(EntityKind.ITEM, 5.5, 90.0, 4.2, vy=-25.0)
        mgr.spawn(EntityKind.ITEM, 4.2, WORLD_HEIGHT + 10.0, 5.7)
        for i in range(12):  # at the unloaded chunk's edge, heading in
            mgr.spawn(EntityKind.MOB, 17.5 + i, 60.0, -15.8, vz=-0.6)
        for i in range(12):
            mob = mgr.spawn(EntityKind.MOB, -14.5 + 2 * i, 60.0, 10.5)
            if i % 3:
                mob.goal = (-14 + 2 * i + 7, 60, 2)
        for i in range(4):
            mgr.spawn(EntityKind.TNT, 2.5 * i, 61.0, -8.5, vx=0.1,
                      vy=0.3, vz=-0.1, fuse_ticks=80)
        counts = []
        for tick in range(ticks):
            report = WorkReport()
            mgr.begin_tick()
            mgr.tick(report)
            counts.append(list(report.counts.items()))
            # Removals after the tick, as spawning and hooks make them,
            # in no slot order; and a few newcomers.
            live = sorted(mgr.store.eid[mgr.store.alive_slots()].tolist())
            for eid in place.permutation(live)[:2].tolist():
                mgr.remove(mgr.get(eid))
            if tick % 5 == 0:
                x, z = place.uniform(-28, 12, 2)
                mgr.spawn(EntityKind.ITEM, x, 62.0, z, vx=-0.02)
    store = mgr.store
    return {
        "counts": counts,
        "store": {f: getattr(store, f).tobytes() for f, _ in FIELDS},
        "free": list(store._free),
        "handles": [
            None if handle is None else (handle.eid, handle._slot)
            for handle in mgr._handles
        ],
        "rng": mgr.rng.bit_generator.state,
        "world_hash": world_hash(world),
    }


def test_rare_paths_match_the_oracle(monkeypatch):
    new = _scenario(False, monkeypatch)
    old = _scenario(True, monkeypatch)
    for key in old:
        assert new[key] == old[key], key


def test_scenario_reaches_the_rare_paths(monkeypatch):
    reached = Counter()
    kernel = EntityManager._tick_kernel
    push = EntityManager._apply_water_push
    ground = World.ground_and_loaded_bulk

    def count_kernel(self, report):
        before = len(self.removed_this_tick)
        result = kernel(self, report)
        reached["despawned"] += len(self.removed_this_tick) - before
        return result

    def count_push(self, items, x, y, z, vx, vy, vz):
        before = vx.copy()
        push(self, items, x, y, z, vx, vy, vz)
        reached["pushed"] += int(np.count_nonzero(vx != before))

    def count_ground(self, xs, ys, zs, max_scan=12):
        found, loaded = ground(self, xs, ys, zs, max_scan)
        reached["unloaded"] += int(np.count_nonzero(~loaded))
        reached["deep"] += max_scan == 12
        return found, loaded

    monkeypatch.setattr(EntityManager, "_tick_kernel", count_kernel)
    monkeypatch.setattr(EntityManager, "_apply_water_push", count_push)
    monkeypatch.setattr(World, "ground_and_loaded_bulk", count_ground)
    state = _scenario(False, monkeypatch)
    totals = Counter()
    for counts in state["counts"]:
        totals.update(dict(counts))
    assert reached["despawned"] > 0
    assert reached["pushed"] > 100
    assert reached["unloaded"] > 10
    assert reached["deep"] > 0
    assert totals[Op.PATHFIND_NODE] > 100
    assert totals[Op.COLLISION_PAIR] > 100
