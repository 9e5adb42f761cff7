"""A region chunk decoded into its arena slot is the chunk that used to be
built on a private page and copied in.

``RegionStore.load_chunk`` decodes into whatever chunk its ``create``
argument returns.  The world passes its arena's ``create``; handing it
``Chunk`` instead is the old path — a free-standing chunk, relit on its
own page, which ``World.ensure_chunks`` then adopts — and is the oracle.
"""

import zlib

import numpy as np
import pytest

from repro.mlg.blocks import Block
from repro.mlg.lighting import LightEngine
from repro.mlg.world import Chunk, World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.region import chunk_to_region, write_region
from repro.persistence.store import RegionStore, world_hash

SEED = 21
COORDS = [(cx, cz) for cx in range(-3, 4) for cz in range(-3, 4)]


class AdoptingLifecycle(ChunkLifecycle):
    def _load(self, cx, cz, create):
        return super()._load(cx, cz, Chunk)


@pytest.fixture
def saved(tmp_path):
    """A store holding every second chunk of ``COORDS``, torches in some."""
    world = World(generator=TerrainGenerator(seed=SEED))
    world.ensure_chunks(COORDS)
    for cx, cz in COORDS[::5]:
        x, z = 16 * cx + 5, 16 * cz + 9
        world.set_block(x, world.column_height(x, z), z, Block.TORCH, log=False)
    RegionStore(tmp_path).save_chunks(
        [world.get_chunk(*key) for key in COORDS[::2]]
    )
    return tmp_path


def _rig(cls, root):
    world = World(generator=TerrainGenerator(seed=SEED))
    lifecycle = cls(
        world,
        store=RegionStore(root),
        relight=LightEngine(world).light_chunk,
    )
    return world, lifecycle


def _state(world, lifecycle):
    chunks = list(world.loaded_chunks())
    return {
        "order": [(c.cx, c.cz) for c in chunks],
        "slots": [c._page.base + c._slot for c in chunks],
        "world_hash": world_hash(world),
        "skylight": b"".join(c.skylight.tobytes() for c in chunks),
        "blocklight": b"".join(c.blocklight.tobytes() for c in chunks),
        "dirty": [c.dirty for c in chunks],
        "bytes_read": lifecycle.bytes_read,
        "chunks_loaded": lifecycle.chunks_loaded,
        "fresh": world._arena._fresh,
        "free": sorted(world._arena._free),
    }


def _churn(world):
    """Loaded, generated and resident in one batch; then slots are freed
    and reclaimed, so loads also land in recycled (zeroed) slots."""
    sources = [s for _, s in world.ensure_chunks(COORDS[:30])]
    world.set_block(-40, 70, -40, Block.STONE, log=False)  # dirties (-3, -3)
    for key in COORDS[3:25:2]:
        world.unload_chunk(*key)
    sources += [s for _, s in world.ensure_chunks(reversed(COORDS))]
    return sources


def test_in_place_load_is_the_adopted_load(saved):
    world, lifecycle = _rig(ChunkLifecycle, saved)
    expected, oracle = _rig(AdoptingLifecycle, saved)
    sources = _churn(world)
    assert sources == _churn(expected)
    assert {"resident", "loaded", "generated"} == set(sources)
    state, expected_state = _state(world, lifecycle), _state(expected, oracle)
    for key in expected_state:
        assert state[key] == expected_state[key], key
    assert state["chunks_loaded"] == sources.count("loaded") > 20
    assert any(state["blocklight"])
    # A loaded chunk is the handle of its arena slot, not a private page.
    chunk = world.get_chunk(*COORDS[0])
    assert chunk._page.base >= 0 and chunk is world._arena.handles[COORDS[0]]


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(zlib.compress(b"\x07" * 1000), id="short"),
        pytest.param(b"not a zlib stream", id="corrupt"),
    ],
)
def test_a_payload_that_fails_claims_no_slot(saved, payload):
    bad = COORDS[2]
    assert RegionStore(saved).has_chunk(*bad)
    rx, rz = chunk_to_region(*bad)
    store = RegionStore(saved)
    table = dict(store._region(rx, rz))
    table[bad] = payload  # write_region stamps the CRC of what it is given
    write_region(store.region_path(rx, rz), rx, rz, table)

    world, lifecycle = _rig(ChunkLifecycle, saved)
    claimed = []
    create = world._arena.create
    world._arena.create = lambda cx, cz: claimed.append((cx, cz)) or create(cx, cz)
    ensured = world.ensure_chunks(COORDS[:5])
    assert [source for _, source in ensured] == [
        "loaded", "generated", "generated", "generated", "loaded",
    ]
    # One claim per chunk, in coordinate order: the failed load made none.
    assert claimed == COORDS[:5]
    assert world._arena._fresh == 5 and not world._arena._free
    assert [(e.cx, e.cz) for e in lifecycle.store.corrupt] == [bad]
    assert lifecycle.chunks_loaded == 2
    # What was generated in its place is the seed's terrain.
    fresh = World(generator=TerrainGenerator(seed=SEED))
    np.testing.assert_array_equal(
        world.get_chunk(*bad).blocks, fresh.ensure_chunk(*bad).blocks
    )
