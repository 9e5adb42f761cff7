"""Batch-vs-sequential parity for TNT.

``TNTSystem.detonate`` hands a tick's expired fuses to one lattice gather,
one bulk write and one distance matrix; ``tnt_oracle.OracleTNTSystem``
detonates them one after another, as the code did before.  Both must
leave the bit-identical run — terrain, change log, entity store, RNG
stream, work report — which is what makes the batching a pure performance
change rather than a simulation-model change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tnt_oracle import OracleTNTSystem

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import EntityKind
from repro.mlg.entity_manager import EntityManager
from repro.mlg.entity_store import FIELDS
from repro.mlg.tnt import MAX_DROPS_PER_EXPLOSION, TNTSystem
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World
from repro.persistence.store import world_hash

_SCATTER = (
    Block.STONE, Block.DIRT, Block.SAND, Block.LEAVES, Block.GLASS,
    Block.OBSIDIAN, Block.TNT, Block.AIR, Block.AIR,
)


def _world(ground_y=56, full_height=False):
    """3x3 chunks of layered ground under a band of scattered block types
    (droppable, drop-less, blast-proof, TNT, air), every cell with a
    non-zero aux so that a write which resets aux shows."""
    world = World()
    rng = np.random.default_rng(5)
    for cx in range(3):
        for cz in range(3):
            chunk = world.ensure_chunk(cx, cz)
            chunk.blocks[:, :, 0] = Block.BEDROCK
            chunk.blocks[:, :, 1:ground_y] = Block.STONE
            top = WORLD_HEIGHT if full_height else ground_y + 8
            chunk.blocks[:, :, ground_y:top] = rng.choice(
                _SCATTER, size=(16, 16, top - ground_y)
            )
            chunk.aux[:] = rng.integers(1, 8, size=chunk.aux.shape)
            chunk.heightmap[:] = column_tops(chunk.blocks != Block.AIR)
    return world


class _Rig:
    """One world, entity manager and TNT system, and what they logged."""

    def __init__(self, system, world, seed=3):
        self.world = world
        self.entities = EntityManager(world, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 1)
        self.tnt = system(world, self.entities, rng)
        self.report = WorkReport()
        self.changes = []
        self.returned = []

    def bystanders(self, n=60, seed=11, lo=4.0, hi=44.0, y=(50.0, 70.0)):
        rng = np.random.default_rng(seed)
        for kind in rng.choice(EntityKind.PHYSICAL, size=n):
            x, z = rng.uniform(lo, hi, size=2)
            vx, vy, vz = rng.uniform(-0.3, 0.3, size=3)
            self.entities.spawn(
                str(kind), x, rng.uniform(*y), z, vx=vx, vy=vy, vz=vz,
                fuse_ticks=200 if kind == EntityKind.TNT else -1,
            )

    def fuse(self, x, y, z, ticks=1):
        return self.entities.spawn(EntityKind.TNT, x, y, z, fuse_ticks=ticks)

    def run(self, ticks=1):
        for _ in range(ticks):
            self.entities.begin_tick()
            self.returned.append(self.tnt.tick(self.report))
            self.entities.tick(self.report)
            self.changes.extend(self.world.drain_changes().records())

    def state(self):
        store = self.entities.store
        return {
            "world_hash": world_hash(self.world),
            "loaded": list(self.world.loaded_keys()),
            "heightmaps": [
                c.heightmap.tobytes() for c in self.world.loaded_chunks()
            ],
            "changes": self.changes + self.world.drain_changes().records(),
            "rng": self.tnt.rng.bit_generator.state,
            "entity_rng": self.entities.rng.bit_generator.state,
            "capacity": store.capacity,
            # Bytes, not values: -0.0 and 0.0 must not compare equal.
            **{name: getattr(store, name).tobytes() for name, _ in FIELDS},
            "free": list(store._free),
            "next_eid": self.entities._next_eid,
            "spawned": [e.eid for e in self.entities.spawned_this_tick],
            "removed": [e.eid for e in self.entities.removed_this_tick],
            "counts": list(self.report.counts.items()),
            "returned": self.returned,
            "explosions_total": self.tnt.explosions_total,
            "blocks_destroyed_total": self.tnt.blocks_destroyed_total,
        }


def _both(scenario, **world_kwargs):
    """Run ``scenario(rig)`` against the batch and the oracle; returns the
    batch rig after asserting both ended in the same state."""
    rigs = [
        _Rig(system, _world(**world_kwargs))
        for system in (TNTSystem, OracleTNTSystem)
    ]
    states = []
    for rig in rigs:
        scenario(rig)
        states.append(rig.state())
    batch, oracle = states
    for key in oracle:
        assert batch[key] == oracle[key], key
    assert list(batch) == list(oracle)
    return rigs[0]


def _velocities(rig):
    store = rig.entities.store
    return store.vx.copy(), store.vy.copy(), store.vz.copy()


class TestDetonateEqualsSequential:
    def test_one_explosion(self):
        def scenario(rig):
            rig.bystanders()
            before = _velocities(rig)
            entity = rig.fuse(24.5, 58.5, 24.5)
            rig.returned.append(rig.tnt.detonate([entity], rig.report))
            rig.pushed = sum(
                int((a != b).any()) for a, b in zip(before, _velocities(rig))
            )

        rig = _both(scenario)
        assert rig.returned[0] > 50
        assert rig.pushed == 3, "bystanders must have been knocked back"
        assert rig.report.get(Op.BLOCK_ADD_REMOVE) == rig.returned[0]
        assert rig.entities.count(EntityKind.TNT) > 20, "a chain must start"

    def test_overlapping_spheres_first_wins(self):
        def alone(rig):
            rig.returned.append(
                rig.tnt.detonate([rig.fuse(26.5, 58.5, 24.5)], rig.report)
            )

        def scenario(rig):
            rig.bystanders()
            rig.fuse(24.5, 58.5, 24.5)
            rig.fuse(26.5, 58.5, 24.5)
            rig.run()

        second_alone = _both(alone).returned[0]
        rig = _both(scenario)
        assert rig.returned == [2]
        first, second = {}, {}
        for change in rig.changes:
            # Every cell of the first sphere is logged before any of the
            # second's, and no cell twice.
            (second if second or change.x > 28 else first)[
                (change.x, change.y, change.z)
            ] = change
        assert len(first) + len(second) == len(rig.changes)
        assert 0 < len(second) < second_alone, "the spheres must overlap"

    def test_chunk_corner_centre(self):
        def scenario(rig):
            rig.bystanders(lo=10.0, hi=22.0)
            rig.fuse(16.0, 58.0, 16.0)
            rig.fuse(31.99, 60.2, 16.01)
            rig.run()

        rig = _both(scenario)
        chunks = [(c.x >> 4, c.z >> 4) for c in rig.changes]
        assert set(chunks) >= {(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)}
        # Chunk-major within a sphere: a chunk's cells are one run.
        runs = [
            k for i, k in enumerate(chunks) if i == 0 or chunks[i - 1] != k
        ]
        assert len(runs) == len(set(runs[:4])) + len(set(runs[4:]))

    @pytest.mark.parametrize("y", [2.5, 0.3, -3.5, -9.0])
    def test_y_clipped_at_the_floor(self, y):
        def scenario(rig):
            rig.bystanders(y=(0.0, 8.0))
            rig.fuse(24.5, y, 24.5)
            rig.fuse(27.5, 3.0, 24.5)
            rig.run()

        rig = _both(scenario)
        assert min(c.y for c in rig.changes) == 1, "bedrock row is spared"

    @pytest.mark.parametrize("y", [125.5, 127.9, 131.2, 140.0])
    def test_y_clipped_at_the_ceiling(self, y):
        def scenario(rig):
            rig.bystanders(y=(118.0, 128.0))
            rig.fuse(24.5, y, 24.5)
            rig.fuse(27.5, 126.0, 24.5)
            rig.run()

        rig = _both(scenario, full_height=True)
        assert max(c.y for c in rig.changes) == WORLD_HEIGHT - 1

    def test_blast_reaching_an_unloaded_chunk(self):
        def scenario(rig):
            rig.world.unload_chunk(1, 2)
            rig.bystanders()
            rig.fuse(1.5, 58.5, 1.5)  # over the world's edge
            rig.fuse(24.5, 58.5, 31.5)  # over the hole
            rig.run()

        rig = _both(scenario)
        assert len(rig.state()["loaded"]) == 8, "a blast loads no chunk"
        assert rig.changes

    def test_more_than_four_drop_candidates(self):
        def scenario(rig):
            # All droppable: ~250 candidates at 8 % each.
            rig.world.fill(16, 50, 16, 32, 66, 32, Block.DIRT)
            rig.fuse(24.5, 58.5, 24.5)
            rig.fuse(40.5, 58.5, 40.5)
            rig.run()

        rig = _both(scenario)
        items = [
            e for e in rig.entities.spawned_this_tick
            if e.kind == EntityKind.ITEM
        ]
        cap = MAX_DROPS_PER_EXPLOSION
        assert cap < len(items) <= 2 * cap
        assert sum(e.x < 32 for e in items) == cap

    def test_full_cuboid_chain(self):
        """The TNT workload's 16 x 14 x 16 cuboid, primed and burnt down
        with the entity tick running between detonation waves."""

        def scenario(rig):
            rig.bystanders()
            idle = rig.entities.count(EntityKind.TNT)
            cuboid = (16, 64, 16, 31, 77, 31)
            rig.world.fill(*cuboid, Block.TNT, log=True)
            rig.entities.begin_tick()
            rig.returned.append(
                rig.tnt.prime_region(*cuboid, fuse_spread=(3, 40))
            )
            rig.changes.extend(rig.world.drain_changes().records())
            rig.peak = 0
            while rig.entities.count(EntityKind.TNT) > idle:
                rig.run()
                rig.peak = max(rig.peak, rig.returned[-1])

        rig = _both(scenario)
        assert rig.returned[0] == 16 * 14 * 16
        assert rig.tnt.explosions_total >= 16 * 14 * 16
        assert rig.peak > 100, "many detonations must share a tick"
        cuboid = rig.world.blocks_cuboid(16, 64, 16, 31, 77, 31)
        assert not (cuboid == Block.TNT).any()


_coordinate = st.floats(min_value=1.0, max_value=47.0)
_centres = st.lists(
    st.tuples(
        _coordinate,
        st.floats(min_value=-6.0, max_value=WORLD_HEIGHT + 6.0),
        _coordinate,
    ),
    min_size=1, max_size=6,
)


@given(centres=_centres, bunch=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_random_centre_sets(centres, bunch, seed):
    if bunch:  # pull the centres together so that spheres overlap
        x0, y0, z0 = centres[0]
        centres = [
            (x0 + (x - x0) / 8, y0 + (y - y0) / 16, z0 + (z - z0) / 8)
            for x, y, z in centres
        ]

    def scenario(rig):
        rig.bystanders(n=40, seed=seed)
        for x, y, z in centres:
            rig.fuse(x, y, z)
        rig.run(2)

    _both(scenario, full_height=True)
