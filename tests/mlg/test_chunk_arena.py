"""The chunk arena: slot reuse, iteration order, paging, and the rule that
every bulk query over the slabs equals its scalar twin."""

import math

import numpy as np
import pytest
from pagemap_probe import needs_pagemap, written_kb
from terrain_oracle import growth_tick_scalar

from repro.mlg.blocks import Block, is_solid
from repro.mlg.chunk_arena import ChunkArena
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.growth import GrowthEngine
from repro.mlg.lighting import LightEngine
from repro.mlg.workreport import WorkReport
from repro.mlg.world import Chunk, World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.region import deserialize_chunk, serialize_chunk
from repro.persistence.store import RegionStore, world_hash


def _keys(world):
    return [(c.cx, c.cz) for c in world.loaded_chunks()]


def _state(world):
    return {
        (c.cx, c.cz): (c.blocks.copy(), c.aux.copy(), c.heightmap.copy())
        for c in world.loaded_chunks()
    }


def _assert_same_state(a, b):
    assert list(a) == list(b)  # same chunks, same iteration order
    for key in a:
        for left, right in zip(a[key], b[key]):
            np.testing.assert_array_equal(left, right, err_msg=str(key))


def _generated(seed, keys):
    world = World(generator=TerrainGenerator(seed=seed))
    for key in keys:
        world.ensure_chunk(*key)
    return world


def _small_pages(monkeypatch):
    """Worlds created from here on get four slots per page, so a handful
    of chunks spans several pages; earlier worlds keep their page size."""
    monkeypatch.setattr(ChunkArena, "PAGE_SLOTS", 4)


class TestSlots:
    def test_reused_slot_is_zeroed_and_old_handle_raises(self):
        world = World()
        old = world.ensure_chunk(0, 0)
        world.set_block(3, 70, 5, Block.STONE, aux=9)
        world.set_block(3, 71, 5, Block.TORCH)
        LightEngine(world).light_chunks([old])
        assert old._page.glows[old._slot]
        slot = old._slot
        assert world.unload_chunk(0, 0) is None
        assert not world.has_chunk(0, 0)
        fresh = world.ensure_chunk(5, 5)  # lowest free slot: the same one
        assert fresh._slot == slot
        for name in (
            "blocks", "aux", "skylight", "skylit", "blocklight", "heightmap",
        ):
            assert not getattr(fresh, name).any(), name
        assert not fresh.dirty and not fresh._page.glows[fresh._slot]
        fresh.blocks[:] = Block.DIRT
        # The unloaded handle names no slot: every read and write raises,
        # and none reaches the chunk that reuses its slot.
        for name in (
            "blocks", "aux", "skylight", "skylit", "blocklight", "heightmap",
            "dirty",
        ):
            with pytest.raises(AttributeError):
                getattr(old, name)
        with pytest.raises(AttributeError):
            old.blocks[0, 0, 0] = Block.TNT
        with pytest.raises(AttributeError):
            old.dirty = True
        assert (fresh.blocks == Block.DIRT).all() and not fresh.dirty

    @needs_pagemap
    def test_releasing_leaves_fields_never_written_untouched(self):
        # Each field of a page is zero-initialised memory, backed only
        # where written.  Releasing a chunk whose aux and blocklight were
        # never written must not fault their pages in by zeroing them.
        arena = ChunkArena()
        page = arena._pages[0]
        for cx in range(100):
            arena.create(cx, 0).blocks[:, :, :64] = Block.STONE

        def resident_kb():
            return {
                name: written_kb(getattr(page, name))
                for name in ("aux", "blocklight")
            }

        before = resident_kb()
        handles = list(arena.handles.values())
        for cx in range(100):
            arena.release(cx, 0)
        after = resident_kb()
        # 100 zeroed slots would be 6 400 kB of each field.
        for name in before:
            assert after[name] - before[name] < 256, name
        with pytest.raises(AttributeError):
            handles[-1].blocks
        assert not page.blocks[:100].any()

    def test_unloading_together_equals_one_at_a_time(self, monkeypatch):
        """``unload_chunks`` clears runs of slots, across page edges and
        gaps, to the state ``unload_chunk`` leaves one slot at a time:
        the same free slots, zero on reuse, and dead handles."""
        _small_pages(monkeypatch)
        keys = [(cx, cz) for cx in range(4) for cz in range(4)]
        gone = [keys[i] for i in (13, 1, 2, 3, 4, 5, 9, 10, 7)] + [(9, 9)]
        worlds = []
        for together in (True, False):
            world = World(generator=TerrainGenerator(seed=6))
            world.ensure_chunks(keys)
            for key in keys:
                world.set_block(key[0] * 16, 120, key[1] * 16, Block.TORCH)
            handle = world.get_chunk(*gone[0])
            if together:
                world.unload_chunks(gone)
            else:
                for key in gone:
                    world.unload_chunk(*key)
            with pytest.raises(AttributeError):
                handle.blocks
            world.ensure_chunks(gone[:-1])  # back in the freed slots
            worlds.append(world)
        together, alone = worlds
        assert _keys(together) == _keys(alone)
        slots = [c._page.base + c._slot for c in together.loaded_chunks()]
        assert slots == [c._page.base + c._slot for c in alone.loaded_chunks()]
        assert world_hash(together) == world_hash(alone)
        for cx, cz in keys:  # a reused slot read zero before generation
            torch = together.get_block(cx * 16, 120, cz * 16) == Block.TORCH
            assert torch == ((cx, cz) not in gone)

    def test_released_slots_are_reused_lowest_first(self):
        world = World()
        for cx in range(6):
            world.ensure_chunk(cx, 0)
        for cx in (4, 1, 3):
            world.unload_chunk(cx, 0)
        slots = [world.ensure_chunk(cx, 9)._slot for cx in range(4)]
        assert slots == [1, 3, 4, 6]

    def test_adopt_copies_in_and_replaces_a_resident_chunk(self):
        world = World()
        for cx in range(3):
            world.ensure_chunk(cx, 0)
        resident = world.get_chunk(1, 0)
        resident.blocks[0, 0, 1] = Block.SAND
        loose = Chunk(1, 0)
        loose.blocks[2, 2, 2] = Block.STONE
        assert world.adopt_chunk(loose) is loose
        assert world.get_chunk(1, 0) is loose
        assert _keys(world) == [(0, 0), (2, 0), (1, 0)]  # the newest chunk
        assert loose._slot == 1  # in the freed slot
        assert world.get_block(16 + 2, 2, 2) == Block.STONE
        assert world.get_block(16, 1, 0) == Block.AIR
        with pytest.raises(AttributeError):  # released: it names no slot
            resident.blocks
        loose.blocks[4, 4, 4] = Block.DIRT  # now a view of the slab
        assert world.get_block(16 + 4, 4, 4) == Block.DIRT
        # A handle names one slot of one world: it cannot be adopted twice,
        # nor once it is unloaded.
        with pytest.raises(ValueError, match="attached"):
            World().adopt_chunk(loose)
        world.unload_chunk(1, 0)
        with pytest.raises(AttributeError):
            World().adopt_chunk(loose)


class TestOrder:
    def test_order_is_dict_insertion_order_through_evict_reload_generate(self):
        # Every other evicted chunk comes back through the loader (its
        # payload, saved before the eviction, decoded into a fresh slot);
        # the rest are regenerated.
        shelf: dict[tuple[int, int], bytes] = {}

        def loader(cx, cz, create):
            raw = shelf.pop((cx, cz), None)
            if raw is not None:
                return deserialize_chunk(cx, cz, raw, create)

        world = World(generator=TerrainGenerator(seed=4), loader=loader)
        model: dict[tuple[int, int], None] = {}
        rng = np.random.default_rng(11)
        sources = []
        for step in range(300):
            key = tuple(int(v) for v in rng.integers(-3, 4, size=2))
            if key in model and rng.random() < 0.5:
                del model[key]
                if step % 2:
                    shelf[key] = serialize_chunk(world.get_chunk(*key))
                world.unload_chunk(*key)
            else:
                model[key] = None
                sources.append(world.ensure_chunks([key])[0][1])
            assert _keys(world) == list(model)
        assert {"resident", "loaded", "generated"} == set(sources)
        assert world_hash(world) == world_hash(_generated(4, model))
        # The vectorised per-chunk read follows the same order.
        lxs, lzs, ys = (np.full(len(model), v) for v in (3, 4, 20))
        np.testing.assert_array_equal(
            world.blocks_per_chunk(lxs, lzs, ys),
            [c.blocks[3, 4, 20] for c in world.loaded_chunks()],
        )


class TestPaging:
    def test_growth_keeps_earlier_handles_contents_and_hash(self, monkeypatch):
        reference = World(generator=TerrainGenerator(seed=2))
        _small_pages(monkeypatch)
        world = World(generator=TerrainGenerator(seed=2))
        for cx in range(3):
            reference.ensure_chunk(cx, 0)
        handles = [world.ensure_chunk(cx, 0) for cx in range(3)]
        views = [h.blocks for h in handles]
        before = [v.copy() for v in views]
        assert world_hash(world) == world_hash(reference)
        for cx in range(11):
            world.ensure_chunk(cx, 0)
        assert len(world._arena._pages) == 3
        assert len(reference._arena._pages) == 1
        for handle, view, saved in zip(handles, views, before):
            assert world.get_chunk(handle.cx, 0) is handle
            np.testing.assert_array_equal(handle.blocks, saved)
            # Pages never move, so even a view taken before growth is live.
            assert np.shares_memory(view, handle.blocks)
        for cx in range(3, 11):
            world.unload_chunk(cx, 0)
        assert world_hash(world) == world_hash(reference)

    def test_bulk_queries_span_pages(self, monkeypatch):
        monolith = World(generator=TerrainGenerator(seed=6))
        _small_pages(monkeypatch)
        paged = World(generator=TerrainGenerator(seed=6))
        rng = np.random.default_rng(3)
        xs, zs = rng.integers(-40, 40, size=(2, 300))
        ys = rng.integers(-4, WORLD_HEIGHT + 4, size=300)
        for world in (paged, monolith):
            for cx in range(-2, 3):
                for cz in range(-2, 3):
                    world.ensure_chunk(cx, cz)
        assert len(paged._arena._pages) == 7
        assert len(monolith._arena._pages) == 1
        uniq = np.unique(np.stack([xs, ys, zs]), axis=1)
        for world in (paged, monolith):
            world.set_blocks_bulk(*uniq, np.full(uniq.shape[1], Block.STONE))
            world.set_aux_bulk(*uniq, np.arange(uniq.shape[1]) % 200)
        assert _keys(paged) == _keys(monolith)
        assert world_hash(paged) == world_hash(monolith)
        for query in ("blocks_bulk", "aux_bulk"):
            np.testing.assert_array_equal(
                getattr(paged, query)(xs, ys, zs),
                getattr(monolith, query)(xs, ys, zs),
            )
        for left, right in zip(
            paged.ground_and_loaded_bulk(xs + 0.5, ys + 6.0, zs + 0.5),
            monolith.ground_and_loaded_bulk(xs + 0.5, ys + 6.0, zs + 0.5),
        ):
            np.testing.assert_array_equal(left, right)
        none = np.array([], dtype=np.int64)
        assert paged.blocks_bulk(none, none, none).shape == (0,)
        assert paged.set_blocks_bulk(none, none, none, none) == 0
        assert paged.dirty_count() == monolith.dirty_count() > 0
        assert paged.dirty_keys() == [
            (c.cx, c.cz) for c in paged.loaded_chunks() if c.dirty
        ]


def _churned_growth(root, scalar: bool):
    """Random ticks on a generated, persisted world whose lifecycle evicts
    behind an anchor walking out and back: 25 chunks in view, 16 allowed
    resident, so chunks leave, are regenerated or come back from disk."""
    world = World(generator=TerrainGenerator(seed=8))
    lifecycle = ChunkLifecycle(
        world,
        store=RegionStore(root),
        autosave_interval_ticks=4,
        full_flush_every=1,
        max_loaded_chunks=16,
    )
    growth = GrowthEngine(world, np.random.default_rng(5))
    report = WorkReport()
    for tick in range(140):
        ccx = 6 - abs(6 - tick // 10)
        for cx in range(ccx - 2, ccx + 3):
            for cz in range(-2, 3):
                chunk, source = world.ensure_chunks([(cx, cz)])[0]
                if source == "generated":  # something for random ticks to hit
                    chunk.blocks[::2, ::2, 60:100] = Block.CROP
                    chunk.blocks[1::4, 1::4, 60:90] = Block.SAPLING
        (growth_tick_scalar if scalar else GrowthEngine.tick)(growth, report)
        lifecycle.tick(tick, report, [((ccx, 0), 0)])
    return world, lifecycle, growth, report


class TestGrowthParity:
    def test_tick_equals_tick_scalar_under_eviction_churn(self, tmp_path):
        world_a, life_a, growth_a, report_a = _churned_growth(
            tmp_path / "a", scalar=False
        )
        world_b, life_b, growth_b, report_b = _churned_growth(
            tmp_path / "b", scalar=True
        )
        assert life_a.chunks_evicted == life_b.chunks_evicted > 20
        assert life_a.chunks_loaded == life_b.chunks_loaded > 10
        _assert_same_state(_state(world_a), _state(world_b))
        assert (
            growth_a.rng.bit_generator.state
            == growth_b.rng.bit_generator.state
        )
        assert report_a.counts == report_b.counts
        assert (
            world_a.drain_changes().records()
            == world_b.drain_changes().records()
        )


def _ground_below_scalar(world, x, y, z, max_scan=12):
    bx, bz = math.floor(x), math.floor(z)
    start = min(math.floor(y), WORLD_HEIGHT - 1)
    for yy in range(start, max(start - max_scan, -1), -1):
        if is_solid(world.get_block(bx, yy, bz)):
            return float(yy + 1)
    return float(max(0, start - max_scan))


def _query_world():
    world = World(generator=TerrainGenerator(seed=3))
    for cx in range(-2, 2):
        for cz in range(-2, 2):
            world.ensure_chunk(cx, cz)
    world.fill(-20, 70, -20, 10, 70, 10, Block.STONE)  # a roof
    world.unload_chunk(-1, 0)
    world.unload_chunk(1, -2)
    return world


class TestBulkEqualsScalar:
    @pytest.fixture
    def world(self):
        return _query_world()

    @pytest.fixture
    def coords(self):
        rng = np.random.default_rng(17)
        xs, zs = rng.integers(-48, 48, size=(2, 600))  # beyond the loaded 4x4
        ys = rng.integers(-6, WORLD_HEIGHT + 6, size=600)
        return xs, ys, zs

    def test_reads(self, world, coords):
        xs, ys, zs = coords
        tag = np.flatnonzero(world.ground_and_loaded_bulk(xs, ys, zs)[1])
        tag = tag[::3]
        world.set_aux_bulk(xs[tag], ys[tag], zs[tag], 1 + tag % 250)
        triples = list(zip(xs.tolist(), ys.tolist(), zs.tolist()))
        np.testing.assert_array_equal(
            world.blocks_bulk(xs, ys, zs),
            [world.get_block(*p) for p in triples],
        )
        np.testing.assert_array_equal(
            world.aux_bulk(xs, ys, zs), [world.get_aux(*p) for p in triples]
        )
        assert world.aux_bulk(xs, ys, zs).any()
        fx, fy, fz = xs + 0.25, ys + 0.75, zs - 0.25
        ground, loaded = world.ground_and_loaded_bulk(fx, fy, fz)
        np.testing.assert_array_equal(
            loaded,
            [
                world.has_chunk(math.floor(x) >> 4, math.floor(z) >> 4)
                for x, z in zip(fx.tolist(), fz.tolist())
            ],
        )
        assert loaded.any() and not loaded.all()
        np.testing.assert_array_equal(
            ground,
            [
                _ground_below_scalar(world, x, y, z)
                for x, y, z in zip(fx.tolist(), fy.tolist(), fz.tolist())
            ],
        )
        assert world.loaded_chunk_count == 14  # reads load nothing

    @pytest.mark.parametrize("max_scan", [0, -3])
    def test_ground_scan_without_depth_is_refused_by_name(
        self, world, max_scan
    ):
        xs = np.array([1.5, -7.25])
        with pytest.raises(ValueError, match="max_scan"):
            world.ground_and_loaded_bulk(xs, xs + 70.0, xs, max_scan=max_scan)

    def test_empty_world_and_empty_queries(self, coords):
        xs, ys, zs = coords
        world = World()
        assert not world.blocks_bulk(xs, ys, zs).any()
        ground, loaded = world.ground_and_loaded_bulk(xs, ys, zs)
        assert not loaded.any()
        np.testing.assert_array_equal(
            ground, np.maximum(0, np.minimum(ys, WORLD_HEIGHT - 1) - 12)
        )
        empty = np.zeros(0, dtype=np.int64)
        full = World(generator=TerrainGenerator(seed=3))
        full.ensure_chunk(0, 0)
        for w in (world, full):
            assert w.blocks_bulk(empty, empty, empty).shape == (0,)
            for part in w.ground_and_loaded_bulk(empty, empty, empty):
                assert part.shape == (0,)
            assert w.set_blocks_bulk(empty, empty, empty, empty) == 0
        assert world.blocks_per_chunk(empty, empty, empty).shape == (0,)

    def test_writes(self, world, coords):
        xs, ys, zs = np.unique(np.stack(coords), axis=1)
        rng = np.random.default_rng(2)
        ids = rng.choice([Block.AIR, Block.STONE, Block.WATER_FLOW], xs.size)
        auxs = np.where(ids == Block.WATER_FLOW, rng.integers(0, 8, xs.size), 0)
        scalar = _query_world()
        changed = world.set_blocks_bulk(xs, ys, zs, ids, auxs)
        expected = [
            change
            for change in (
                scalar.set_block(*p)
                for p in zip(xs.tolist(), ys.tolist(), zs.tolist(),
                             ids.tolist(), auxs.tolist())
            )
            if change is not None
        ]
        assert changed == len(expected) > 100
        assert (
            world.drain_changes().records()
            == expected
            == scalar.drain_changes().records()
        )
        # Chunks a bulk write has to create appear in packed-key order
        # (cx, then cz as unsigned); the scalar loop created them in input
        # order, so compare contents by key and the creation order apart.
        bulk_state, scalar_state = _state(world), _state(scalar)
        assert set(bulk_state) == set(scalar_state)
        _assert_same_state(
            bulk_state, {key: scalar_state[key] for key in bulk_state}
        )
        created = _keys(world)[14:]
        assert len(created) > 10
        assert created == sorted(created, key=lambda k: (k[0], k[1] % 2**32))
        values = rng.integers(0, 256, xs.size)
        world.set_aux_bulk(xs, ys, zs, values)
        for p in zip(xs.tolist(), ys.tolist(), zs.tolist(), values.tolist()):
            scalar.set_aux(*p)
        _assert_same_state(
            _state(world), {key: _state(scalar)[key] for key in _keys(world)}
        )
        assert world.dirty_count() == scalar.dirty_count()


def _terrain_world(lock_aux: bool, seeded_aux: bool = False):
    """Nine generated chunks around the origin; with ``lock_aux`` every
    later write to the ``aux`` slab raises.  ``seeded_aux`` first leaves
    aux 5 in one cell of the fill cuboid below."""
    world = _generated(5, [(cx, cz) for cx in (-1, 0, 1) for cz in (-1, 0, 1)])
    if seeded_aux:
        world.set_aux(2, 60, 2, 5)
    world._arena._pages[0].aux.flags.writeable = not lock_aux
    return world


def _crater():
    """A sphere of radius 5 across four chunks, through the surface."""
    xs, ys, zs = np.mgrid[-5:6, 55:66, -5:6].reshape(3, -1)
    inside = (xs**2 + (ys - 60) ** 2 + zs**2) <= 25
    return xs[inside], ys[inside], zs[inside]


class TestAuxStaysUntouched:
    """A write that leaves a cell's ``aux`` zero does not store it: with
    the ``aux`` slab read-only, the terrain writers still run as the game
    calls them, and they leave what an unlocked world does."""

    @staticmethod
    def _writes(world):
        xs, ys, zs = _crater()
        # An explosion: blocks become air, each cell keeping its aux.
        world.set_blocks_bulk(
            xs, ys, zs, np.zeros(xs.size, np.uint8),
            auxs=world.aux_bulk(xs, ys, zs),
        )
        # A bulk write with the default aux (zeros).
        world.set_blocks_bulk(
            xs + 12, ys, zs, np.full(xs.size, Block.GLASS, np.uint8)
        )
        world.fill(-3, 58, -3, 4, 62, 4, Block.GLASS, log=True)
        world.set_block(9, 63, -9, Block.DIRT)
        world.set_block(9, 63, -9, Block.AIR)

    def test_writes_leaving_aux_zero_never_store_it(self):
        locked, twin = _terrain_world(True), _terrain_world(False)
        self._writes(locked)
        self._writes(twin)
        changes = locked.drain_changes().records()
        assert changes == twin.drain_changes().records()
        assert len(changes) > 1300
        _assert_same_state(_state(locked), _state(twin))
        assert locked.dirty_count() == twin.dirty_count()
        assert not twin._arena._pages[0].aux.any()

    def test_a_nonzero_aux_is_still_written(self):
        xs, ys, zs = _crater()
        world = _terrain_world(True)
        with pytest.raises(ValueError, match="read-only"):
            world.set_blocks_bulk(
                xs, ys, zs, np.zeros(xs.size, np.uint8),
                auxs=np.ones(xs.size, np.uint8),
            )
        with pytest.raises(ValueError, match="read-only"):
            world.set_block(9, 63, -9, Block.DIRT, aux=3)
        # A fill clears a non-zero aux under it.
        world = _terrain_world(True, seeded_aux=True)
        with pytest.raises(ValueError, match="read-only"):
            world.fill(-3, 58, -3, 4, 62, 4, Block.GLASS)
        twin = _terrain_world(False, seeded_aux=True)
        twin.fill(-3, 58, -3, 4, 62, 4, Block.GLASS)
        assert twin.get_aux(2, 60, 2) == 0


class TestRegionBytes:
    def test_arena_world_writes_the_same_region_file_as_loose_chunks(
        self, tmp_path
    ):
        world = World(generator=TerrainGenerator(seed=12))
        for cx in range(-1, 2):
            for cz in range(-1, 2):
                world.ensure_chunk(cx, cz)
        world.set_block(5, 90, -7, Block.TNT, aux=3)
        loose = []
        for chunk in world.loaded_chunks():
            twin = Chunk(chunk.cx, chunk.cz)
            twin.blocks[:] = chunk.blocks
            twin.aux[:] = chunk.aux
            twin.heightmap[:] = chunk.heightmap
            loose.append(twin)
        RegionStore(tmp_path / "arena").save_chunks(list(world.loaded_chunks()))
        RegionStore(tmp_path / "loose").save_chunks(loose)
        files = sorted(p.name for p in (tmp_path / "arena" / "region").iterdir())
        assert len(files) == 4
        for name in files:
            assert (tmp_path / "arena" / "region" / name).read_bytes() == (
                tmp_path / "loose" / "region" / name
            ).read_bytes()
        # ... and what comes back from disk adopts into an equal world.
        back = World()
        store = RegionStore(tmp_path / "arena")
        for cx, cz in sorted(store.chunk_positions()):
            back.adopt_chunk(store.load_chunk(cx, cz))
        assert world_hash(back) == world_hash(world)
