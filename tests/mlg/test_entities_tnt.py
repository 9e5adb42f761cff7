"""Tests for the entity manager and the TNT/explosion system."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.mlg.blocks import Block
from repro.mlg.entity import Entity, EntityKind
from repro.mlg.entity_manager import EntityManager
from repro.mlg.tnt import BLAST_RADIUS, RAYS_PER_EXPLOSION, TNTSystem
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World


def _flat_world(ground_y=60, size=3):
    world = World()
    edge = 16 * size - 1
    world.fill(0, 0, 0, edge, ground_y - 1, edge, Block.STONE)
    return world


def _manager(world=None, merge=False, seed=0):
    world = world if world is not None else _flat_world()
    return EntityManager(
        world, np.random.default_rng(seed), merge_items=merge
    ), world


class TestEntityLifecycle:
    def test_spawn_assigns_unique_ids(self):
        mgr, _ = _manager()
        a = mgr.spawn(EntityKind.ITEM, 1.0, 61.0, 1.0)
        b = mgr.spawn(EntityKind.MOB, 2.0, 61.0, 2.0)
        assert a.eid != b.eid
        assert mgr.count() == 2
        assert mgr.count(EntityKind.ITEM) == 1

    def test_remove_reaps_at_tick_end(self):
        mgr, _ = _manager()
        entity = mgr.spawn(EntityKind.ITEM, 1.0, 61.0, 1.0)
        mgr.begin_tick()
        mgr.remove(entity)
        assert not entity.alive
        report = WorkReport()
        mgr.tick(report)
        assert mgr.count() == 0
        assert entity in mgr.removed_this_tick

    def test_double_remove_is_idempotent(self):
        mgr, _ = _manager()
        entity = mgr.spawn(EntityKind.ITEM, 1.0, 61.0, 1.0)
        mgr.begin_tick()
        mgr.remove(entity)
        mgr.remove(entity)
        assert len(mgr.removed_this_tick) == 1

    def test_entities_near(self):
        mgr, _ = _manager()
        mgr.spawn(EntityKind.ITEM, 1.0, 61.0, 1.0)
        mgr.spawn(EntityKind.ITEM, 30.0, 61.0, 30.0)
        near = mgr.entities_near(0.0, 61.0, 0.0, 5.0)
        assert len(near) == 1


class TestPhysics:
    def test_gravity_pulls_to_ground(self):
        mgr, _ = _manager()
        entity = mgr.spawn(EntityKind.ITEM, 8.0, 70.0, 8.0)
        report = WorkReport()
        for _ in range(100):
            mgr.begin_tick()
            mgr.tick(report)
        assert entity.y == pytest.approx(60.0, abs=0.01)
        assert entity.vy == 0.0

    def test_horizontal_friction_stops_sliding(self):
        mgr, _ = _manager()
        entity = mgr.spawn(EntityKind.ITEM, 8.0, 60.0, 8.0, vx=0.5)
        report = WorkReport()
        for _ in range(200):
            mgr.begin_tick()
            mgr.tick(report)
        assert abs(entity.vx) < 1e-3

    def test_item_despawns_after_timeout(self):
        from repro.mlg.entity_manager import _ITEM_DESPAWN_TICKS

        mgr, _ = _manager()
        entity = mgr.spawn(EntityKind.ITEM, 8.0, 60.0, 8.0)
        entity.age_ticks = _ITEM_DESPAWN_TICKS
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert mgr.count(EntityKind.ITEM) == 0

    def test_large_swarm_lands_on_the_ground(self):
        """The kernel must land big populations on the ground too."""
        mgr, _ = _manager()
        entities = [
            mgr.spawn(EntityKind.TNT, 8.0 + i * 0.01, 70.0, 8.0, fuse_ticks=10_000)
            for i in range(106)
        ]
        report = WorkReport()
        for _ in range(120):
            mgr.begin_tick()
            mgr.tick(report)
        for entity in entities:
            assert entity.y <= 70.0
            assert entity.y >= 59.0

    def test_swarm_counts_tnt_updates(self):
        mgr, _ = _manager()
        for i in range(106):
            mgr.spawn(EntityKind.TNT, 8.0, 61.0, 8.0, fuse_ticks=10_000)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert report.get(Op.TNT_UPDATE) == 106

    def test_collision_pairs_counted_for_crowds(self):
        mgr, _ = _manager()
        for _ in range(10):
            mgr.spawn(EntityKind.ITEM, 8.2, 61.0, 8.2)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert report.get(Op.COLLISION_PAIR) > 0

    def test_lone_entity_has_no_collision_pairs(self):
        mgr, _ = _manager()
        mgr.spawn(EntityKind.ITEM, 8.0, 61.0, 8.0)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert report.get(Op.COLLISION_PAIR) == 0


class TestMobAI:
    def test_mob_with_goal_moves_toward_it(self):
        mgr, _ = _manager()
        mob = mgr.spawn(EntityKind.MOB, 2.0, 60.0, 2.0)
        mob.goal = (12, 60, 2)
        report = WorkReport()
        for _ in range(400):
            mgr.begin_tick()
            mgr.tick(report)
        assert mob.x > 8.0, "mob should have pathed toward its goal"

    def test_mob_stays_in_loaded_chunks(self):
        mgr, world = _manager()
        mob = mgr.spawn(EntityKind.MOB, 2.0, 60.0, 2.0)
        mob.goal = None
        report = WorkReport()
        for _ in range(2000):
            mgr.begin_tick()
            mgr.tick(report)
        assert world.has_chunk(int(mob.x) >> 4, int(mob.z) >> 4)


class TestItemMerging:
    def test_colocated_items_merge_when_enabled(self):
        mgr, _ = _manager(merge=True)
        for _ in range(5):
            mgr.spawn(EntityKind.ITEM, 8.3, 61.0, 8.3)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        items = mgr.entities_of(EntityKind.ITEM)
        assert len(items) == 1
        assert items[0].stack_count == 5

    def test_no_merging_when_disabled(self):
        mgr, _ = _manager(merge=False)
        for _ in range(5):
            mgr.spawn(EntityKind.ITEM, 8.3, 61.0, 8.3)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert len(mgr.entities_of(EntityKind.ITEM)) == 5

    def test_distant_items_do_not_merge(self):
        mgr, _ = _manager(merge=True)
        mgr.spawn(EntityKind.ITEM, 2.0, 61.0, 2.0)
        mgr.spawn(EntityKind.ITEM, 30.0, 61.0, 30.0)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert len(mgr.entities_of(EntityKind.ITEM)) == 2


class TestTNT:
    def _system(self, world=None, seed=1):
        mgr, world = _manager(world)
        return TNTSystem(world, mgr, np.random.default_rng(seed)), mgr, world

    def test_priming_replaces_block_with_entity(self):
        tnt, mgr, world = self._system()
        world.set_block(8, 60, 8, Block.TNT, log=False)
        assert tnt.prime_region(8, 60, 8, 8, 60, 8) == 1
        (entity,) = mgr.spawned_this_tick
        assert world.get_block(8, 60, 8) == Block.AIR
        assert entity.kind == EntityKind.TNT
        assert entity.fuse_ticks > 0

    def test_priming_non_tnt_spawns_nothing(self):
        tnt, mgr, world = self._system()
        assert tnt.prime_region(8, 60, 8, 8, 60, 8) == 0
        assert mgr.spawned_this_tick == []

    def test_prime_region_counts(self):
        tnt, _, world = self._system()
        world.fill(4, 61, 4, 7, 62, 7, Block.TNT)
        primed = tnt.prime_region(0, 60, 0, 15, 70, 15)
        assert primed == 4 * 4 * 2

    def test_fuse_countdown_and_explosion(self):
        tnt, mgr, world = self._system()
        world.set_block(8, 61, 8, Block.TNT, log=False)
        tnt.prime_region(8, 61, 8, 8, 61, 8, fuse_spread=(3, 3))
        report = WorkReport()
        explosions = 0
        for _ in range(5):
            mgr.begin_tick()
            explosions += tnt.tick(report)
            mgr.tick(report)
        assert explosions == 1
        assert tnt.explosions_total == 1

    def test_explosion_destroys_terrain(self):
        tnt, mgr, world = self._system()
        entity = mgr.spawn(EntityKind.TNT, 24.5, 60.5, 24.5, fuse_ticks=1)
        report = WorkReport()
        destroyed = tnt.detonate([entity], report)
        assert destroyed > 0
        assert world.get_block(24, 59, 24) == Block.AIR
        assert report.get(Op.EXPLOSION_RAY) == RAYS_PER_EXPLOSION
        assert report.get(Op.BLOCK_ADD_REMOVE) == destroyed

    def test_explosion_respects_blast_resistance(self):
        tnt, mgr, world = self._system()
        world.set_block(24, 61, 24, Block.OBSIDIAN, log=False)
        entity = mgr.spawn(EntityKind.TNT, 24.5, 62.5, 24.5)
        tnt.detonate([entity], WorkReport())
        assert world.get_block(24, 61, 24) == Block.OBSIDIAN

    def test_chain_reaction_primes_neighbors(self):
        tnt, mgr, world = self._system()
        world.fill(24, 61, 24, 26, 61, 26, Block.TNT)
        entity = mgr.spawn(EntityKind.TNT, 25.5, 61.5, 25.5, fuse_ticks=1)
        report = WorkReport()
        tnt.detonate([entity], report)
        chained = mgr.entities_of(EntityKind.TNT)
        assert len(chained) >= 8, "surrounding TNT blocks must be primed"
        for primed in chained:
            assert 1 <= primed.fuse_ticks <= 30

    def test_knockback_pushes_entities_away(self):
        tnt, mgr, world = self._system()
        bystander = mgr.spawn(EntityKind.ITEM, 27.0, 61.0, 24.5)
        entity = mgr.spawn(EntityKind.TNT, 24.5, 61.0, 24.5)
        tnt.detonate([entity], WorkReport())
        assert bystander.vx > 0  # pushed in +x, away from the blast

    def test_full_cuboid_chain_consumes_all_tnt(self, count_blocks):
        tnt, mgr, world = self._system()
        world.fill(20, 61, 20, 25, 63, 25, Block.TNT)
        tnt.prime_region(20, 61, 20, 25, 63, 25, fuse_spread=(1, 5))
        report = WorkReport()
        for _ in range(300):
            mgr.begin_tick()
            tnt.tick(report)
            mgr.tick(report)
            if not mgr.entities_of(EntityKind.TNT):
                break
        assert not mgr.entities_of(EntityKind.TNT)
        assert count_blocks(world, Block.TNT) == 0
        assert tnt.explosions_total == 6 * 6 * 3


def test_tnt_iteration_leaves_numpy_ma_unimported():
    # ``np.unique`` without ``return_index`` imports ``numpy.ma`` on its
    # first call (15 ms and 1.2 MiB per process); the tick avoids it.
    # A fresh interpreter, because any earlier test may have imported it.
    script = (
        "import sys\n"
        "from repro.core import run_iteration\n"
        "run_iteration('tnt', 'vanilla', 'das5-2core', duration_s=45,"
        " seed=1, scale=0.5)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
