"""Voxel slots are ``y``-major, 16 layers (one section) to a 4 KiB page:
every writer leaves a section it puts nothing in unwritten, so the open
sky over the terrain costs no memory.  The layout is invisible from
outside: scalar ``[lx, lz, y]`` access is what it was, and so is the
world's content (region format 2 stores the slot's sections as they are,
so its bytes and world hashes are pinned anew)."""

import hashlib

import numpy as np
import pytest
from pagemap_probe import PAGE, needs_pagemap, vm_flags, written_pages

from repro.cloud import get_environment
from repro.emulation import BotSwarm
from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import SECTION_HEIGHT, Chunk
from repro.mlg.constants import CHUNK_SIZE, WORLD_HEIGHT
from repro.mlg.lighting import LightEngine
from repro.mlg.server import MLGServer
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.region import serialize_chunk
from repro.persistence.store import RegionStore, world_hash
from repro.persistence.warmup import prepare_world
from repro.workloads import get_workload

SECTIONS = WORLD_HEIGHT // SECTION_HEIGHT
VOXEL_FIELDS = ("blocks", "aux", "blocklight")


def _square(lo, hi):
    return [(cx, cz) for cx in range(lo, hi) for cz in range(lo, hi)]


def _slot(chunk, field):
    """The chunk's ``y``-major slot of ``field``: ``[y, lx, lz]``."""
    return getattr(chunk._page, field)[chunk._slot]


def _empty_sections_written(world) -> tuple[int, int]:
    """``(all-zero sections, those of them on a written page)`` over every
    voxel field of every loaded chunk."""
    assert SECTION_HEIGHT * CHUNK_SIZE * CHUNK_SIZE == PAGE
    empty = written = 0
    for chunk in world.loaded_chunks():
        for field in VOXEL_FIELDS:
            slot = _slot(chunk, field)
            zero = ~slot.reshape(SECTIONS, -1).any(axis=1)
            empty += int(zero.sum())
            written += int((zero & written_pages(slot)).sum())
    return empty, written


def _assert_sky_unwritten(world, at_least: int) -> None:
    empty, written = _empty_sections_written(world)
    assert empty >= at_least  # the check has something to check
    assert written == 0, f"{written} of {empty} all-zero sections written"


def _generated(coords, seed=3):
    world = World(generator=TerrainGenerator(seed))
    ensured = world.ensure_chunks(coords)
    LightEngine(world).light_chunks([chunk for chunk, _ in ensured])
    return world


@needs_pagemap
class TestAllAirSectionsStayUnwritten:
    """Blocks above the terrain, and all of ``aux`` and ``blocklight``
    where nothing set them, are pages the process never wrote."""

    def test_a_generated_lit_view(self):
        world = _generated(_square(-3, 4))
        # 49 chunks: at least two sky sections each, and untouched aux
        # and blocklight.
        _assert_sky_unwritten(world, at_least=49 * (2 + 2 * SECTIONS))

    def test_block_light_around_a_torch(self):
        world = _generated([(0, 0)])
        top = world.column_height(8, 8)
        world.set_block(8, top, 8, Block.TORCH)
        LightEngine(world).light_chunks(list(world.loaded_chunks()))
        lit = _slot(world.get_chunk(0, 0), "blocklight")
        assert lit.any()
        # Light reaches 13 cells from the torch: the sections beyond it
        # stay dark, and unwritten.
        _assert_sky_unwritten(world, at_least=3 + SECTIONS + 3)

    def test_a_warm_cache_load(self, tmp_path):
        prepare_world(tmp_path, "control", seed=3, radius=3)
        store = RegionStore(tmp_path)
        world = World(loader=store.load_chunk)
        ensured = world.ensure_chunks(_square(-3, 4))
        assert {source for _, source in ensured} == {"loaded"}
        generated = get_workload("control").create_world(3)
        generated.ensure_chunks(_square(-3, 4))
        assert world_hash(world) == world_hash(generated)
        _assert_sky_unwritten(world, at_least=49 * 2)

    def test_a_fill_and_an_explosion_through_the_sky(self):
        world = _generated(_square(-2, 3))
        top = max(world.column_height(x, 0) for x in range(-32, 48))
        # Air from the ground to the top of the world: the sky sections
        # change nothing, the ground ones are carved.
        assert world.fill(-20, 40, -20, -5, WORLD_HEIGHT - 1, -5,
                          Block.AIR, log=True) > 0
        # A crater reaching from the surface up into the sky.
        xs, ys, zs = np.mgrid[-9:10, 0:WORLD_HEIGHT, -9:10].reshape(3, -1)
        inside = xs**2 + (ys - top) ** 2 + zs**2 <= 81
        xs, ys, zs = xs[inside] + 20, ys[inside], zs[inside] + 20
        assert world.set_blocks_bulk(
            xs, ys, zs, np.zeros(xs.size, np.uint8),
            auxs=world.aux_bulk(xs, ys, zs),
        ) > 0
        world.set_block(3, WORLD_HEIGHT - 1, 3, Block.AIR)  # a no-op
        _assert_sky_unwritten(world, at_least=25 * 2)

    def test_an_evict_and_reload(self, tmp_path):
        world = _generated(_square(-2, 3))
        RegionStore(tmp_path).save_chunks(list(world.loaded_chunks()))
        page = world._arena._pages[0]
        freed = [
            world.get_chunk(cx, 0)._slot for cx in range(-2, 3)
        ]
        for cx in range(-2, 3):
            world.unload_chunk(cx, 0)
        assert not any(
            written_pages(getattr(page, field)[slot]).any()
            for field in VOXEL_FIELDS
            for slot in freed
        ), "a released slot is still resident"
        store = RegionStore(tmp_path)
        world.set_loader(store.load_chunk)
        world.ensure_chunks([(cx, 0) for cx in range(-2, 3)])
        _assert_sky_unwritten(world, at_least=25 * 2)

    def test_an_adopted_chunk(self):
        loose = Chunk(5, -7)
        TerrainGenerator(3)(loose)
        loose.aux[2, 3, 4] = 9
        world = World()
        world.adopt_chunk(loose)
        assert world.get_aux(5 * 16 + 2, 4, -7 * 16 + 3) == 9
        _assert_sky_unwritten(world, at_least=2 + 2 * SECTIONS - 1)


    def test_the_slabs_refuse_huge_pages(self):
        # With transparent huge pages always on, a first write would
        # otherwise fault in 2 MiB of a slab, sky sections included.
        page = _generated([(0, 0)])._arena._pages[0]
        for field in VOXEL_FIELDS:
            assert "nh" in vm_flags(getattr(page, field))


class TestLayoutIsInvisible:
    def test_scalar_access_round_trips_through_every_path(self):
        world = World(generator=TerrainGenerator(3))
        chunk = world.ensure_chunk(1, -1)
        x, z = 16 + 3, -16 + 11
        chunk.blocks[3, 11, 100] = Block.GLASS
        chunk.aux[3, 11, 100] = 7
        assert world.get_block(x, 100, z) == Block.GLASS
        assert world.get_aux(x, 100, z) == 7
        assert _slot(chunk, "blocks")[100, 3, 11] == Block.GLASS
        world.set_block(x, 101, z, Block.TORCH, aux=2)
        assert chunk.blocks[3, 11, 101] == Block.TORCH
        assert chunk.aux[3, 11, 101] == 2
        assert chunk.blocks[3, 11].tolist()[100:102] == [
            Block.GLASS, Block.TORCH,
        ]
        assert world.blocks_bulk([x], [101], [z]).tolist() == [Block.TORCH]
        assert world.column_height(x, z) == 102
        world.set_block(x, 102, z, Block.STONE)  # a roof: no sky at 101
        LightEngine(world).light_chunks([chunk])
        assert chunk.blocklight[3, 11, 101] == 14
        assert LightEngine(world).light_at(x, 101, z) == 14

    @pytest.mark.parametrize(
        ("name", "chunks", "with_aux", "format_1", "hashed", "payloads"),
        [
            # format_1: captured when a slot was [lx, lz, y] and region
            # format 1 stored it so; the layout and format 2 must not
            # change the world's content.  hashed and payloads: format 2.
            ("control", 289, 0, "746fee685740dbe3", "69ff31df",
             "25bcc2a0f2d353b3"),
            ("tnt", 289, 0, "100e841f272d7fe3", "d8a352f5",
             "751a11d804c7d5cf"),
            ("farm", 289, 11, "762692cf58269e38", "a8a43c38",
             "8e0b2b19d7a6c0ad"),
        ],
    )
    def test_content_is_unchanged_and_payloads_are_pinned(
        self, name, chunks, with_aux, format_1, hashed, payloads
    ):
        world = _installed(name, seed=3, ticks=20)
        assert world.loaded_chunk_count == chunks
        loaded = sorted(world.loaded_chunks(), key=lambda c: (c.cx, c.cz))
        assert sum(bool(c.aux.any()) for c in loaded) == with_aux
        content, digest = hashlib.sha256(), hashlib.sha256()
        for chunk in loaded:
            # Format 1, from the [lx, lz, y] views: blocks, aux where it
            # is not all zero, heightmap.
            content.update(chunk.blocks.tobytes())
            if chunk.aux.any():
                content.update(chunk.aux.tobytes())
            content.update(chunk.heightmap.astype("<i2").tobytes())
            digest.update(serialize_chunk(chunk))
        assert content.hexdigest()[:16] == format_1
        assert f"{world_hash(world):08x}" == hashed
        assert digest.hexdigest()[:16] == payloads


class _FixedMachine:
    throttled_executions = total_executions = 0
    cpu_used_us = wall_observed_us = credits_s = 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        return max(1, int(work_us))


def _installed(name, seed, ticks):
    """The world of workload ``name`` after ``install`` and ``ticks``."""
    workload = get_workload(name)
    world = workload.create_world(seed)
    server = MLGServer("vanilla", _FixedMachine(), world=world, seed=seed)
    swarm = BotSwarm(
        server, get_environment("das5-2core").network,
        np.random.default_rng(seed),
    )
    workload.install(server, swarm)
    server.start()
    for _ in range(ticks):
        server.tick()
        swarm.step()
    return world
