"""The chunk arena: slot reuse, iteration order, paging, and the rule that
every bulk query over the slabs equals its scalar twin."""

import math
import os

import numpy as np
import pytest
from terrain_oracle import growth_tick_scalar

from repro.mlg.blocks import Block, is_solid
from repro.mlg.chunk_arena import ChunkArena
from repro.mlg.constants import MAX_LIGHT, WORLD_HEIGHT
from repro.mlg.growth import GrowthEngine
from repro.mlg.lighting import LightEngine
from repro.mlg.workreport import WorkReport
from repro.mlg.world import Chunk, World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.lifecycle import ChunkLifecycle
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


def _smaps_rss_kb(address: int) -> int:
    """``Rss:`` of the mapping holding ``address`` (``/proc/self/smaps``)."""
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            head = line.split(None, 1)[0]
            if "-" in head and not head.endswith(":"):
                start, end = (int(bound, 16) for bound in head.split("-"))
                inside = start <= address < end
            elif inside and head == "Rss:":
                return int(line.split()[1])
    raise LookupError(f"no mapping holds {address:#x}")


def _small_pages(monkeypatch):
    """Worlds created from here on get four slots per page, so a handful
    of chunks spans several pages; earlier worlds keep their page size."""
    monkeypatch.setattr(ChunkArena, "PAGE_SLOTS", 4)


class TestSlots:
    def test_reused_slot_is_zeroed_and_old_handle_keeps_its_snapshot(self):
        world = World()
        old = world.ensure_chunk(0, 0)
        world.set_block(3, 70, 5, Block.STONE, aux=9)
        world.set_block(3, 71, 5, Block.TORCH)
        LightEngine(world).light_chunks([old])
        assert old._page.glows[old._slot]
        evicted = world.unload_chunk(0, 0)
        assert evicted is old and not world.has_chunk(0, 0)
        fresh = world.ensure_chunk(5, 5)  # lowest free slot: the same one
        for name in (
            "blocks", "aux", "skylight", "skylit", "blocklight", "heightmap",
        ):
            assert not getattr(fresh, name).any(), name
        assert not fresh.dirty and not fresh._page.glows[fresh._slot]
        fresh.blocks[:] = Block.DIRT
        assert old.blocks[3, 5, 70] == Block.STONE and old.aux[3, 5, 70] == 9
        assert int((old.blocks == Block.STONE).sum()) == 1
        assert old.heightmap[3, 5] == 72 and old.blocklight[3, 5, 71] == 14
        assert old.skylight[3, 5].tolist() == [0] * 71 + [MAX_LIGHT] * 57
        assert old.skylight[0, 0].all() and old._page.glows[old._slot]
        assert old.dirty
        old.blocks[0, 0, 0] = Block.TNT  # a detached handle writes nowhere
        assert world.count_blocks(Block.TNT) == 0

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/smaps"), reason="reads Linux smaps"
    )
    def test_releasing_leaves_fields_never_written_untouched(self):
        # Each field of a page is its own anonymous mapping, resident only
        # where written.  Releasing a chunk whose aux and blocklight were
        # never written must not fault those mappings in by zeroing them.
        arena = ChunkArena()
        page = arena._pages[0]
        for cx in range(100):
            arena.create(cx, 0).blocks[:, :, :64] = Block.STONE

        def rss_kb():
            return {
                name: _smaps_rss_kb(getattr(page, name).ctypes.data)
                for name in ("aux", "blocklight")
            }

        before = rss_kb()
        for cx in range(100):
            released = arena.release(cx, 0)
        after = rss_kb()
        # 100 zeroed slots would be 6 400 kB of each field.
        for name in before:
            assert after[name] - before[name] < 256, name
        assert (released.blocks[:, :, :64] == Block.STONE).all()
        assert not page.blocks[:100].any()

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
        assert resident.blocks[0, 0, 1] == Block.SAND  # detached, intact
        loose.blocks[4, 4, 4] = Block.DIRT  # now a view of the slab
        assert world.get_block(16 + 4, 4, 4) == Block.DIRT
        # A handle names one slot of one world: it cannot be adopted twice.
        with pytest.raises(ValueError, match="attached"):
            World().adopt_chunk(loose)
        World().adopt_chunk(world.unload_chunk(1, 0))  # detached again: fine


class TestOrder:
    def test_order_is_dict_insertion_order_through_evict_reload_generate(self):
        # Every other evicted chunk comes back through the loader (the
        # detached handle itself, re-adopted); the rest are regenerated.
        shelf: dict[tuple[int, int], Chunk] = {}
        world = World(
            generator=TerrainGenerator(seed=4),
            loader=lambda cx, cz, create: shelf.pop((cx, cz), None),
        )
        model: dict[tuple[int, int], None] = {}
        rng = np.random.default_rng(11)
        sources = []
        for step in range(300):
            key = tuple(int(v) for v in rng.integers(-3, 4, size=2))
            if key in model and rng.random() < 0.5:
                del model[key]
                evicted = world.unload_chunk(*key)
                if step % 2:
                    shelf[key] = evicted
            else:
                model[key] = None
                sources.append(world.ensure_chunk_tracked(*key)[1])
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
        np.testing.assert_array_equal(
            paged.ground_below_bulk(xs + 0.5, ys + 6.0, zs + 0.5),
            monolith.ground_below_bulk(xs + 0.5, ys + 6.0, zs + 0.5),
        )
        np.testing.assert_array_equal(
            paged.column_heights_bulk(xs, zs),
            monolith.column_heights_bulk(xs, zs),
        )
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
                chunk, source = world.ensure_chunk_tracked(cx, cz)
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
        tag = np.flatnonzero(world.chunks_loaded_bulk(xs, zs))[::3]
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
        np.testing.assert_array_equal(
            world.column_heights_bulk(xs, zs),
            [world.column_height(x, z) for x, _, z in triples],
        )
        loaded = world.chunks_loaded_bulk(xs, zs)
        np.testing.assert_array_equal(
            loaded, [world.has_chunk(x >> 4, z >> 4) for x, _, z in triples]
        )
        assert loaded.any() and not loaded.all()
        fx, fy, fz = xs + 0.25, ys + 0.75, zs - 0.25
        np.testing.assert_array_equal(
            world.ground_below_bulk(fx, fy, fz),
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
        for query in (world.ground_below_bulk, world.ground_and_loaded_bulk):
            with pytest.raises(ValueError, match="max_scan"):
                query(xs, xs + 70.0, xs, max_scan=max_scan)

    def test_empty_world_and_empty_queries(self, coords):
        xs, ys, zs = coords
        world = World()
        assert not world.blocks_bulk(xs, ys, zs).any()
        assert not world.chunks_loaded_bulk(xs, zs).any()
        np.testing.assert_array_equal(
            world.ground_below_bulk(xs, ys, zs),
            np.maximum(0, np.minimum(ys, WORLD_HEIGHT - 1) - 12),
        )
        empty = np.zeros(0, dtype=np.int64)
        full = World(generator=TerrainGenerator(seed=3))
        full.ensure_chunk(0, 0)
        for w in (world, full):
            assert w.blocks_bulk(empty, empty, empty).shape == (0,)
            assert w.ground_below_bulk(empty, empty, empty).shape == (0,)
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
