"""A region chunk decoded into its arena slot is the chunk that used to be
built on a private page and copied in, and a view's loads lit together are
the loads lit one by one.

``RegionStore.load_chunk`` decodes into whatever chunk its ``create``
argument returns.  The world passes its arena's ``create``; handing it
``Chunk`` instead is the old path — a free-standing chunk, which
``World.ensure_chunks`` then adopts — and is the oracle.  For the relight
the oracle is one ``ensure_chunks`` call per coordinate: every load is then
a batch of one, lit before the next is decoded.
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


def _rig(cls, root, cache=None):
    world = World(generator=TerrainGenerator(seed=SEED))
    lifecycle = cls(
        world,
        store=RegionStore(root),
        cache=None if cache is None else RegionStore(cache),
        relight=LightEngine(world).light_chunks,
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
        "aux": b"".join(c.aux.tobytes() for c in chunks),
        "glows": [bool(c._page.glows[c._slot]) for c in chunks],
        "dirty": [c.dirty for c in chunks],
        "corrupt": [(e.cx, e.cz, e.reason) for e in lifecycle.store.corrupt],
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


def _replace_payload(root, key, payload):
    rx, rz = chunk_to_region(*key)
    store = RegionStore(root)
    assert store.has_chunk(*key)
    table = dict(store._region(rx, rz))
    table[key] = payload  # write_region stamps the CRC of what it is given
    write_region(store.region_path(rx, rz), rx, rz, table)


@pytest.fixture
def cached(saved, tmp_path_factory):
    """A read-only cache holding every third chunk of ``COORDS`` (so some
    chunks are in both, some in either, some in neither), a torch in one
    only it serves, and aux state in another."""
    world = World(generator=TerrainGenerator(seed=SEED))
    world.ensure_chunks(COORDS)
    cx, cz = COORDS[3]
    world.set_block(16 * cx + 2, 100, 16 * cz + 2, Block.TORCH, log=False)
    cx, cz = COORDS[9]
    world.set_block(16 * cx, 90, 16 * cz, Block.WATER_FLOW, aux=5, log=False)
    root = tmp_path_factory.mktemp("cache")
    RegionStore(root).save_chunks([world.get_chunk(*k) for k in COORDS[::3]])
    return root


def test_a_view_lit_together_is_its_chunks_lit_one_by_one(saved, cached):
    _replace_payload(saved, COORDS[4], zlib.compress(b"\x07" * 1000))
    world, lifecycle = _rig(ChunkLifecycle, saved, cached)
    expected, oracle = _rig(AdoptingLifecycle, saved, cached)
    resident = COORDS[10:14]
    world.ensure_chunks(resident)
    for key in resident:
        expected.ensure_chunks([key])
    view = COORDS[:24]
    batch = world.ensure_chunks(view)
    one_by_one = [expected.ensure_chunks([key])[0] for key in view]
    assert [(c.cx, c.cz) for c, _ in batch] == view
    assert [s for _, s in batch] == [s for _, s in one_by_one]
    assert {s for _, s in batch} == {"resident", "loaded", "generated"}
    assert lifecycle.store.bytes_read and lifecycle.cache.bytes_read
    state, expected_state = _state(world, lifecycle), _state(expected, oracle)
    for key in expected_state:
        assert state[key] == expected_state[key], key
    assert [e[:2] for e in state["corrupt"]] == [COORDS[4]]
    assert any(state["aux"]) and any(state["glows"])
    # Loaded means lit (generated chunks are lit by whoever asked for them).
    for chunk, source in batch:
        if source != "resident":
            assert chunk.skylight.any() == (source == "loaded")


def test_loads_are_relit_once_per_call(saved):
    world, _ = _rig(ChunkLifecycle, saved)
    batches = []
    world.set_loader(world._loader, lambda chunks: batches.append(list(chunks)))
    ensured = world.ensure_chunks(COORDS[:9])
    loaded = [chunk for chunk, source in ensured if source == "loaded"]
    assert batches == [loaded] and len(loaded) == 5
    world.ensure_chunks(COORDS[:9])  # all resident: nothing to relight
    assert len(batches) == 1


class FailingLifecycle(ChunkLifecycle):
    """Raises instead of loading ``COORDS[6]``."""

    def _load(self, cx, cz, create):
        if (cx, cz) == COORDS[6]:
            raise OSError("disk gone")
        return super()._load(cx, cz, create)


def test_a_loader_that_raises_leaves_nothing_unlit_or_blank(saved):
    world, lifecycle = _rig(FailingLifecycle, saved)
    with pytest.raises(OSError, match="disk gone"):
        world.ensure_chunks(COORDS[:9])
    assert list(world.loaded_keys()) == COORDS[:6]
    assert lifecycle.chunks_loaded == 3
    for key in COORDS[:6]:
        chunk = world.get_chunk(*key)
        assert chunk.blocks.any(), key
        if key in COORDS[::2]:  # decoded before the failure: lit all the same
            assert chunk.skylight.any(), key


def test_zero_aux_is_not_copied_but_reads_zero_on_a_reclaimed_slot(saved):
    world, _ = _rig(ChunkLifecycle, saved)
    first = world.ensure_chunk(*COORDS[0])
    x, z = 16 * COORDS[0][0], 16 * COORDS[0][1]
    world.set_block(x, 90, z, Block.WATER_FLOW, aux=6, log=False)
    RegionStore(saved).save_chunks([first])
    world, lifecycle = _rig(ChunkLifecycle, saved)
    chunk = world.ensure_chunk(*COORDS[0])  # non-zero aux round-trips
    assert chunk.aux[0, 0, 90] == 6 and int(chunk.aux.sum()) == 6
    slot = chunk._slot
    chunk.aux[:] = 9  # the slot's pages are written all over, then released
    world.unload_chunk(*COORDS[0])
    other = world.ensure_chunk(*COORDS[2])  # zero aux in its payload
    assert other._slot == slot and lifecycle.chunks_loaded == 2
    assert not other.aux.any()
    fresh = World(generator=TerrainGenerator(seed=SEED))
    np.testing.assert_array_equal(
        other.blocks, fresh.ensure_chunk(*COORDS[2]).blocks
    )


def test_block_light_follows_the_slot_flag_through_release_and_reclaim(saved):
    torch, plain = COORDS[0], COORDS[2]  # both stored; ``saved`` lit the first
    world, lifecycle = _rig(ChunkLifecycle, saved)
    chunk = world.ensure_chunk(*torch)
    slot = chunk._slot
    assert chunk.blocklight.any() and chunk._page.glows[slot]
    lit = chunk.blocklight.copy()
    world.unload_chunk(*torch)
    other = world.ensure_chunk(*plain)  # reclaims the slot: no light, no flag
    assert other._slot == slot
    assert not other.blocklight.any() and not other._page.glows[slot]
    world.unload_chunk(*plain)
    chunk = world.ensure_chunk(*torch)  # streamed back: lit again
    assert chunk._slot == slot and lifecycle.chunks_loaded == 3
    np.testing.assert_array_equal(chunk.blocklight, lit)
    # The emitter goes: a relight clears the light and the flag with it.
    x, z = 16 * torch[0] + 5, 16 * torch[1] + 9
    world.set_block(x, world.column_height(x, z) - 1, z, Block.AIR, log=False)
    lights = LightEngine(world)
    assert lights.light_chunks([chunk]) == [256]
    assert not chunk.blocklight.any() and not chunk._page.glows[slot]
    assert lights.light_chunks([chunk]) == [256]


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param(zlib.compress(b"\x07" * 1000), id="short"),
        pytest.param(zlib.compress(b"\x07" * 70000), id="long"),
        pytest.param(b"not a zlib stream", id="corrupt"),
    ],
)
def test_a_payload_that_fails_claims_no_slot(saved, payload):
    bad = COORDS[2]
    _replace_payload(saved, bad, payload)

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
    # The load after the failed one is lit like the one before it.
    for chunk, source in ensured:
        assert chunk.skylight.any() == (source == "loaded")
    # What was generated in its place is the seed's terrain.
    fresh = World(generator=TerrainGenerator(seed=SEED))
    np.testing.assert_array_equal(
        world.get_chunk(*bad).blocks, fresh.ensure_chunk(*bad).blocks
    )
