"""Regression tests for the unified struct-of-arrays entity kernel.

These pin the single-physics guarantee: the simulation model must be the
same at every population size (the old code silently switched to a
divergent vectorized path above 96 physical entities), items must ground
against the floor *below* them (not the heightmap top), water transport
must work at any scale, and the store's free list / compaction must keep
handles valid.
"""

import entity_oracle
import numpy as np
import pytest

from repro.mlg.blocks import Block
from repro.mlg.entity import EntityKind
from repro.mlg.entity_manager import _ITEM_DESPAWN_TICKS, EntityManager
from repro.mlg.entity_store import FIELDS, MIN_CAPACITY, FrozenRows
from repro.mlg.fluids import FluidEngine
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

#: The population threshold the old dual-path implementation switched at;
#: tests straddle it to prove the discontinuity is gone.
OLD_SWARM_THRESHOLD = 96


def _flat_world(ground_y=60, span=(-1, 3)):
    world = World()
    lo, hi = 16 * span[0], 16 * span[1] - 1
    world.fill(lo, 0, lo, hi, ground_y - 1, hi, Block.STONE)
    return world


def _manager(world=None, merge=False, seed=0, fluid_flow=None):
    world = world if world is not None else _flat_world()
    return (
        EntityManager(
            world,
            np.random.default_rng(seed),
            merge_items=merge,
            fluid_flow=fluid_flow,
        ),
        world,
    )


def _spread_positions(n, x0=1.0, z0=1.0, pitch=2.5, per_row=12):
    """Positions ≥2 blocks apart: every entity alone in its hash cell, so
    no collision jitter is drawn and runs stay rng-independent."""
    return [
        (x0 + (i % per_row) * pitch, z0 + (i // per_row) * pitch)
        for i in range(n)
    ]


def _run_population(n, ticks=60, seed=11, probe_count=12):
    """Spawn ``n`` spread-out items (some pre-aged to despawn mid-run) and
    return (probe trajectories, despawn ticks) for the first entities."""
    mgr, _ = _manager(_flat_world(span=(0, 4)), seed=seed)
    entities = []
    for i, (x, z) in enumerate(_spread_positions(n)):
        e = mgr.spawn(EntityKind.ITEM, x, 66.0, z, vx=0.02 * (i % 3))
        if i % 7 == 3:
            # Pre-age so a handful despawn at staggered mid-run ticks.
            e.age_ticks = _ITEM_DESPAWN_TICKS - 10 - i
        entities.append(e)
    trajectories = [[] for _ in range(probe_count)]
    despawn_tick = {}
    report = WorkReport()
    for t in range(ticks):
        mgr.begin_tick()
        mgr.tick(report)
        for dead in mgr.removed_this_tick:
            despawn_tick[dead.eid] = t
        for k in range(probe_count):
            e = entities[k]
            trajectories[k].append((e.x, e.y, e.z, e.vx, e.vy, e.vz))
    return trajectories, despawn_tick


class TestCrossThresholdParity:
    """Straddling the old 96-entity threshold changes nothing but scale."""

    def test_shared_trajectories_bit_identical_95_vs_97(self):
        n_low = OLD_SWARM_THRESHOLD - 1
        n_high = OLD_SWARM_THRESHOLD + 1
        traj_low, despawn_low = _run_population(n_low)
        traj_high, despawn_high = _run_population(n_high)
        # The first 95 entities are spawned identically in both runs; with
        # one physics kernel their trajectories must match bit for bit.
        assert traj_low == traj_high
        shared = set(despawn_low) & set(despawn_high)
        assert shared, "some shared probes must despawn mid-run"
        for eid in shared:
            assert despawn_low[eid] == despawn_high[eid]

    def test_op_counts_scale_exactly_linearly(self):
        """+2 entities ⇒ exactly +2 item updates per tick, nothing else."""
        counts = {}
        for n in (OLD_SWARM_THRESHOLD - 1, OLD_SWARM_THRESHOLD + 1):
            mgr, _ = _manager(_flat_world(span=(0, 4)), seed=5)
            for x, z in _spread_positions(n):
                mgr.spawn(EntityKind.ITEM, x, 61.0, z)
            per_tick = []
            for _ in range(20):
                report = WorkReport()
                mgr.begin_tick()
                mgr.tick(report)
                per_tick.append(
                    (report.get(Op.ITEM_UPDATE), report.get(Op.COLLISION_PAIR))
                )
            counts[n] = per_tick
        for (items_low, pairs_low), (items_high, pairs_high) in zip(
            counts[OLD_SWARM_THRESHOLD - 1], counts[OLD_SWARM_THRESHOLD + 1]
        ):
            assert items_high == items_low + 2
            assert pairs_low == pairs_high == 0  # all spread out

    def test_same_seed_runs_are_bit_identical(self):
        """Seeded determinism at both sides of the old threshold."""
        for n in (OLD_SWARM_THRESHOLD - 1, OLD_SWARM_THRESHOLD + 1):
            first = _run_population(n, ticks=40, seed=23)
            second = _run_population(n, ticks=40, seed=23)
            assert first == second


class _FixedMachine:
    """Deterministic machine: duration equals work (no noise)."""

    @property
    def credits_s(self):
        return 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        return max(1, int(work_us))


class TestServerLevelDeterminism:
    """Full-server runs straddling the old threshold: seeded repeats must
    reproduce the ISR, every tick duration, and the Fig. 11 work totals
    bit-identically."""

    def _run_server(self, n_items, seed=3):
        from repro.mlg.server import MLGServer

        server = MLGServer(
            "vanilla", _FixedMachine(), world=_flat_world(span=(0, 4)),
            seed=seed,
        )
        for x, z in _spread_positions(n_items):
            server.entities.spawn(EntityKind.ITEM, x, 66.0, z)
        server.run_for(3.0)
        return (
            server.telemetry.snapshot()["isr"],
            tuple(server.telemetry.tick_ms),
            tuple(sorted(server.telemetry.bucket_totals_us.items())),
        )

    @pytest.mark.parametrize(
        "n", [OLD_SWARM_THRESHOLD - 1, OLD_SWARM_THRESHOLD + 1]
    )
    def test_isr_ticks_and_work_bit_identical(self, n):
        assert self._run_server(n) == self._run_server(n)


class TestEnclosedFarmGrounding:
    """Items under a roof must ground on the floor below, never teleport
    to the structure top (the old vectorized path grounded against the
    heightmap)."""

    def _roofed_world(self, roof_y=65):
        world = _flat_world(span=(0, 4))  # floor top surface at y=60
        # A sealed 12×12 room: roof slab well above the floor.
        for x in range(2, 14):
            for z in range(2, 14):
                world.set_block(x, roof_y, z, Block.STONE, log=False)
        return world

    def test_items_stay_inside_enclosed_farm(self):
        floor_y, roof_y = 60, 65
        world = self._roofed_world(roof_y)
        mgr, _ = _manager(world)
        n = OLD_SWARM_THRESHOLD + 30  # old code: swarm path engaged
        items = [
            mgr.spawn(
                EntityKind.ITEM,
                2.5 + (i % 11),
                floor_y + 2.0,
                2.5 + (i // 11),
                vy=0.05,
            )
            for i in range(n)
        ]
        report = WorkReport()
        for _ in range(80):
            mgr.begin_tick()
            mgr.tick(report)
        for item in items:
            assert item.y < roof_y, "item teleported through the roof"
            assert item.y >= floor_y - 1e-9

    def test_bulk_ground_query_scans_below_not_heightmap_top(self):
        world = self._roofed_world()
        # Directly compare the bulk query against the heightmap: under the
        # roof they must disagree (heightmap sees the roof top).
        xs = np.array([5.5])
        zs = np.array([5.5])
        ground, _ = world.ground_and_loaded_bulk(xs, np.array([62.0]), zs)
        assert ground[0] == 60.0
        # Roof top + 1: the WRONG ground for items.
        assert world.column_height(5, 5) == 66


class TestWaterTransportAtScale:
    """Flow push is part of the one kernel: it must keep working past the
    old threshold where the vectorized path silently dropped it."""

    def _channel_world(self, y=60, length=24):
        world = _flat_world(ground_y=y, span=(0, 4))
        for i in range(length):
            for dz in range(-1, 2):
                # Strictly decreasing level along +x: flow pushes downstream
                # everywhere in the channel.
                world.set_block(
                    2 + i, y, 8 + dz, Block.WATER_FLOW,
                    aux=max(1, length - i), log=False,
                )
        return world

    def _transport_displacement(self, n_items, ticks=80):
        world = self._channel_world()
        fluids = FluidEngine(world)
        mgr, _ = _manager(world, fluid_flow=fluids.flow_vector)
        items = [
            mgr.spawn(
                EntityKind.ITEM,
                2.5 + 0.02 * (i % 5),
                60.5,
                7.5 + 0.06 * (i % 30),
            )
            for i in range(n_items)
        ]
        start_x = [item.x for item in items]
        report = WorkReport()
        for _ in range(ticks):
            mgr.begin_tick()
            mgr.tick(report)
        moved = [item.x - x0 for item, x0 in zip(items, start_x)]
        return float(np.mean(moved))

    def test_water_pushes_items_below_old_threshold(self):
        assert self._transport_displacement(10) > 1.0

    def test_water_pushes_items_above_old_threshold(self):
        # 120 physical entities: the old swarm path skipped _apply_water_push
        # entirely, freezing every farm's collection belt.
        assert self._transport_displacement(OLD_SWARM_THRESHOLD + 24) > 1.0


class TestStoreInvariants:
    """Free-list reuse, growth, compaction, and handle detachment."""

    def _reap(self, mgr):
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)

    def test_free_list_reuses_slots_without_growth(self):
        mgr, _ = _manager()
        first = [mgr.spawn(EntityKind.ITEM, 1.0 + i, 61.0, 1.0) for i in range(10)]
        cap = mgr.store.capacity
        freed = mgr.slots_of(first[:5])
        for e in first[:5]:
            mgr.remove(e)
        self._reap(mgr)
        assert not np.isin(freed, mgr.store.used_slots()).any()
        again = [mgr.spawn(EntityKind.ITEM, 2.0 + i, 61.0, 2.0) for i in range(5)]
        assert mgr.store.capacity == cap
        assert sorted(mgr.slots_of(again).tolist()) == sorted(freed.tolist())
        eids = [e.eid for e in first + again]
        assert len(set(eids)) == len(eids)

    def test_store_grows_on_demand(self):
        mgr, _ = _manager(_flat_world(span=(0, 8)))
        n = MIN_CAPACITY * 3
        items = [
            mgr.spawn(EntityKind.ITEM, 1.0 + (i % 100), 61.0, 1.0 + (i // 100))
            for i in range(n)
        ]
        assert mgr.store.capacity >= n
        assert mgr.count(EntityKind.ITEM) == n
        # Handles read through growth reallocations.
        assert items[0].x == pytest.approx(1.0)
        assert items[-1].alive

    def test_compaction_shrinks_and_preserves_handles(self):
        mgr, _ = _manager(_flat_world(span=(0, 8)))
        n = MIN_CAPACITY * 8
        items = [
            mgr.spawn(EntityKind.ITEM, 1.0 + (i % 100), 61.0, 1.0 + (i // 100))
            for i in range(n)
        ]
        grown = mgr.store.capacity
        assert grown >= n
        survivors = items[:: n // 8]  # keep 8 spread across slot space
        for item in items:
            if item not in survivors:
                mgr.remove(item)
        state_before = [(e.eid, e.x, e.y, e.z) for e in survivors]
        self._reap(mgr)
        assert mgr.store.capacity < grown
        assert mgr.count(EntityKind.ITEM) == len(survivors)
        for (eid, x, _y, z), e in zip(state_before, survivors):
            assert e.eid == eid
            assert e.alive
            assert e.x == x
            assert e.z == z
            assert mgr.get(eid) is e

    def test_reaped_handles_detach_from_recycled_slots(self):
        mgr, _ = _manager()
        victim = mgr.spawn(EntityKind.ITEM, 3.0, 61.0, 3.0)
        victim_eid = victim.eid
        mgr.remove(victim)
        self._reap(mgr)
        # The next spawn reuses the slot; the stale handle must keep
        # reporting its own death, not the newcomer's state.
        newcomer = mgr.spawn(EntityKind.TNT, 9.0, 70.0, 9.0, fuse_ticks=50)
        assert newcomer.alive
        assert not victim.alive
        assert victim.eid == victim_eid
        assert victim.x == pytest.approx(3.0)
        assert victim.kind == EntityKind.ITEM
        assert mgr.get(victim_eid) is None

    def test_recycled_slot_inherits_no_goal_path_or_owner(self):
        mgr, _ = _manager()
        mob = mgr.spawn(EntityKind.MOB, 3.5, 60.0, 3.5)
        mob.goal = (9, 60, 3)
        mob.owner = 4
        slot = mob._slot
        for _ in range(45):  # long enough to repath and start walking
            self._reap(mgr)
        assert mgr.store.path_left[slot] > 0 and mob.path
        mgr.remove(mob)
        self._reap(mgr)
        # The detached handle keeps its navigation state ...
        assert mob.goal == (9, 60, 3) and mob.owner == 4
        # ... and the newcomer in its slot starts with none.
        newcomer = mgr.spawn(EntityKind.MOB, 20.5, 60.0, 20.5)
        assert newcomer._slot == slot
        assert newcomer.goal is None
        assert newcomer.owner == -1
        assert mgr.store.path_left[slot] == 0
        before = (newcomer.vx, newcomer.vz)
        self._reap(mgr)
        assert (newcomer.vx, newcomer.vz) == before, "walked a stale path"

    def test_reap_copy_freezes_every_store_field(self):
        mgr, _ = _manager()
        mobs = [
            mgr.spawn(EntityKind.MOB, 3.5 + i, 60.0, 3.5) for i in range(6)
        ]
        for i, mob in enumerate(mobs):
            mob.goal, mob.owner, mob.fuse_ticks = (9, 60, i), i, 7 * i
        store = mgr.store
        final = {
            mob.eid: {
                name: getattr(store, name)[mob._slot].copy()
                for name, _ in FIELDS
            }
            for mob in mobs
        }
        dying = [mobs[4], mobs[1], mobs[3]]
        for mob in dying:
            mgr.remove(mob)
        mgr._reap()
        copy = dying[0]._store
        assert isinstance(copy, FrozenRows) and copy is not store
        assert FrozenRows.__slots__ == tuple(name for name, _ in FIELDS)
        assert sorted(mob._slot for mob in dying) == [0, 1, 2]
        for mob in dying:
            assert mob._store is copy
            for name, _ in FIELDS:
                value = getattr(copy, name)[mob._slot]
                expected = False if name == "alive" else final[mob.eid][name]
                assert value == expected, (mob.eid, name)
        assert not copy.alive.any()

    def test_write_through_a_stale_handle_stays_off_the_store(self):
        mgr, _ = _manager()
        victim = mgr.spawn(EntityKind.ITEM, 3.0, 61.0, 3.0)
        slot = victim._slot
        mgr.remove(victim)
        self._reap(mgr)
        newcomer = mgr.spawn(EntityKind.ITEM, 9.0, 70.0, 9.0)
        assert newcomer._slot == slot
        before = {name: getattr(mgr.store, name).copy() for name, _ in FIELDS}
        victim.x, victim.vy, victim.alive = 99.0, 5.0, True
        victim.goal, victim.stack_count = (1, 2, 3), 40
        assert (victim.x, victim.vy, victim.goal) == (99.0, 5.0, (1, 2, 3))
        for name, _ in FIELDS:
            np.testing.assert_array_equal(
                getattr(mgr.store, name), before[name], err_msg=name
            )
        assert newcomer.x == 9.0 and newcomer.stack_count == 1

    @pytest.mark.parametrize("n, keep", [(40, 30), (MIN_CAPACITY * 8, 8)])
    def test_batch_reap_is_the_per_slot_release(self, n, keep, monkeypatch):
        """The free list, the store and (past the compaction threshold)
        the slot remap equal releasing slot by slot in ascending order."""

        def run(reap):
            with monkeypatch.context() as patch:
                patch.setattr(EntityManager, "_reap", reap)
                mgr, _ = _manager(_flat_world(span=(0, 8)))
                items = [
                    mgr.spawn(
                        EntityKind.ITEM, 1.0 + i % 100, 61.0, 1.0 + i // 100
                    )
                    for i in range(n)
                ]
                order = np.random.default_rng(4).permutation(n)
                for i in order[keep:].tolist():
                    mgr.remove(items[i])
                mgr._reap()
                store = mgr.store
                return {
                    "capacity": store.capacity,
                    "live": store.live_count,
                    "free": list(store._free),
                    "slots": [item._slot for item in items if item.alive],
                    "frozen": [(e.eid, e.x, e.alive) for e in items],
                    "handles": [
                        None if h is None else h.eid for h in mgr._handles
                    ],
                    **{
                        name: getattr(store, name).tobytes()
                        for name, _ in FIELDS
                    },
                }

        batch, oracle = run(EntityManager._reap), run(entity_oracle.reap)
        for key in oracle:
            assert batch[key] == oracle[key], key
        # The large case grew to n slots and compacted back.
        assert batch["capacity"] == MIN_CAPACITY

    def test_entities_of_skips_dead_unreaped_handles(self):
        mgr, _ = _manager()
        items = [
            mgr.spawn(EntityKind.ITEM, 1.0 + i, 61.0, 1.0) for i in range(3)
        ]
        mgr.remove(items[1])
        # Before the reap, like count / entities_near / absorb_items.
        assert mgr.entities_of(EntityKind.ITEM) == [items[0], items[2]]
        assert mgr.count(EntityKind.ITEM) == 2

    def test_absorb_items_takes_oldest_first_under_limit(self):
        mgr, _ = _manager()
        # Younger items land in the lowest slots; the oldest item spawns
        # last (highest slot), so slot-order absorption would starve it.
        young = [
            mgr.spawn(EntityKind.ITEM, 5.0 + 0.2 * i, 61.0, 5.0)
            for i in range(3)
        ]
        for item in young:
            item.age_ticks = 200
        oldest = mgr.spawn(EntityKind.ITEM, 5.6, 61.0, 5.0)
        oldest.age_ticks = 500
        absorbed = mgr.absorb_items(
            5.0, 5.0, radius=4.0, min_age_ticks=100, limit=2
        )
        assert absorbed == 2
        assert not oldest.alive, "binding limit starved the oldest item"

    def test_live_count_matches_dict(self):
        mgr, _ = _manager()
        spawned = [
            mgr.spawn(EntityKind.ITEM, 1.0 + i, 61.0, 1.0) for i in range(20)
        ]
        mgr.remove(spawned[0])
        self._reap(mgr)
        registered = [e for e in spawned if mgr.get(e.eid) is e]
        assert mgr.count() == len(registered) == 19
        assert mgr.get(spawned[0].eid) is None


class TestFloorBucketing:
    """Spatial cells use floor, not int() truncation: cells straddling an
    axis at negative coordinates must not alias."""

    def test_items_across_origin_do_not_merge(self):
        mgr, _ = _manager(merge=True)
        a = mgr.spawn(EntityKind.ITEM, -0.5, 61.0, 5.5)
        b = mgr.spawn(EntityKind.ITEM, 0.5, 61.0, 5.5)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert a.alive and b.alive, "x∈(-1,1) aliased into one merge cell"

    def test_no_collision_pairs_across_origin(self):
        mgr, _ = _manager()
        mgr.spawn(EntityKind.ITEM, -0.3, 61.0, 5.5)
        mgr.spawn(EntityKind.ITEM, 0.3, 61.0, 5.5)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert report.get(Op.COLLISION_PAIR) == 0

    def test_collision_pairs_within_one_cell_still_counted(self):
        mgr, _ = _manager()
        mgr.spawn(EntityKind.ITEM, 5.2, 61.0, 5.5)
        mgr.spawn(EntityKind.ITEM, 5.8, 61.0, 5.5)
        report = WorkReport()
        mgr.begin_tick()
        mgr.tick(report)
        assert report.get(Op.COLLISION_PAIR) > 0
