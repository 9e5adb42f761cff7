"""Region-file format and store: round trips, atomicity, crash safety."""

import json
import zlib

import numpy as np
import pytest

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import CHUNK_SIZE, WORLD_HEIGHT
from repro.mlg.world import Chunk, World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.region import (
    FORMAT_VERSION,
    RegionCorruptError,
    chunk_to_region,
    deserialize_chunk,
    read_region,
    serialize_chunk,
    write_region,
)
from repro.persistence.store import RegionStore, world_hash
from repro.persistence.warmup import (
    WORLD_MANIFEST,
    ensure_world_cache,
    prepare_world,
    read_world_manifest,
)

#: Bytes of one 16-high section of one voxel field, and the heightmap's.
SECTION_BYTES = 16 * CHUNK_SIZE * CHUNK_SIZE
HEIGHTMAP_BYTES = 2 * CHUNK_SIZE * CHUNK_SIZE


def _random_chunk(cx: int, cz: int, seed: int) -> Chunk:
    rng = np.random.default_rng(seed)
    chunk = Chunk(cx, cz)
    shape = (CHUNK_SIZE, CHUNK_SIZE, WORLD_HEIGHT)
    chunk.blocks[:] = rng.integers(0, 12, size=shape, dtype=np.uint8)
    chunk.aux[:] = rng.integers(0, 256, size=shape, dtype=np.uint8)
    chunk.heightmap[:] = column_tops(chunk.blocks != Block.AIR)
    return chunk


def _zero_aux_chunk(cx: int, cz: int, seed: int) -> Chunk:
    chunk = _random_chunk(cx, cz, seed)
    chunk.aux[:] = 0
    return chunk


def _terrain_chunk(cx: int, cz: int) -> Chunk:
    """Stone up to y = 40 with one glass block at y = 100 (sections 0-2
    and 6 of ``blocks`` hold a block), and ``aux`` set in section 1."""
    chunk = Chunk(cx, cz)
    chunk.blocks[:, :, :40] = Block.STONE
    chunk.blocks[3, 5, 100] = Block.GLASS
    chunk.aux[2, 2, 20] = 9
    chunk.heightmap[:] = column_tops(chunk.blocks != Block.AIR)
    return chunk


def _format_1_payload(chunk: Chunk) -> bytes:
    """A chunk as format 1 stored it: blocks in ``[x, z, y]`` order, then
    ``aux`` only when it is not all zero, then the heightmap."""
    aux = chunk.aux.tobytes() if chunk.aux.any() else b""
    return chunk.blocks.tobytes() + aux + chunk.heightmap.tobytes()


def _never_create(cx, cz):
    pytest.fail(f"a bad payload claimed a chunk for ({cx}, {cz})")


def _assert_chunks_equal(a: Chunk, b: Chunk) -> None:
    assert (a.cx, a.cz) == (b.cx, b.cz)
    np.testing.assert_array_equal(a.blocks, b.blocks)
    np.testing.assert_array_equal(a.aux, b.aux)
    np.testing.assert_array_equal(a.heightmap, b.heightmap)


class TestSerialization:
    def test_round_trip_is_bit_identical(self):
        chunk = _random_chunk(3, -7, seed=1)
        restored = deserialize_chunk(3, -7, serialize_chunk(chunk))
        _assert_chunks_equal(chunk, restored)

    def test_payload_is_the_slots_present_sections(self):
        """Masks, then the slot's own ``[y, lx, lz]`` section bytes, then
        the heightmap; a section is present because a voxel in it is set,
        whatever the heightmap says."""
        chunk = _terrain_chunk(3, -7)
        chunk.heightmap[:] = 40  # stale: the glass at y = 100 is above it
        raw = serialize_chunk(chunk)
        assert len(raw) == 2 + 5 * SECTION_BYTES + HEIGHTMAP_BYTES
        assert raw[0] == 0b0100_0111
        blocks = chunk._page.blocks[chunk._slot]  # [y, lx, lz]
        expected = b"".join(
            blocks[16 * k : 16 * (k + 1)].tobytes() for k in (0, 1, 2, 6)
        )
        assert raw[1 : 1 + len(expected)] == expected
        at = 1 + len(expected)
        assert raw[at] == 0b10
        aux = chunk._page.aux[chunk._slot]
        assert raw[at + 1 : at + 1 + SECTION_BYTES] == aux[16:32].tobytes()
        assert raw[-HEIGHTMAP_BYTES:] == chunk.heightmap.astype("<i2").tobytes()
        restored = deserialize_chunk(3, -7, raw)
        _assert_chunks_equal(chunk, restored)
        assert restored.blocks[3, 5, 100] == Block.GLASS

    def test_zero_aux_payload_has_no_aux_section_and_round_trips(self):
        """Free-standing, and into an arena slot whose previous occupant
        wrote ``aux`` all over: the release that freed it zeroed it."""
        chunk = _zero_aux_chunk(3, -7, seed=1)
        raw = serialize_chunk(chunk)
        aux_mask_at = 1 + 8 * SECTION_BYTES  # every blocks section is set
        assert raw[aux_mask_at] == 0
        assert len(raw) == aux_mask_at + 1 + HEIGHTMAP_BYTES
        _assert_chunks_equal(chunk, deserialize_chunk(3, -7, raw))
        world = World()
        previous = world.adopt_chunk(_random_chunk(0, 0, seed=3))
        assert previous.aux.any()
        slot = previous._page.base + previous._slot
        world.unload_chunk(0, 0)
        with pytest.raises(AttributeError):  # its state went with the slot
            previous.aux
        world.set_loader(
            lambda cx, cz, create: deserialize_chunk(cx, cz, raw, create)
        )
        restored = world.ensure_chunk(3, -7)
        assert restored._page.base + restored._slot == slot
        _assert_chunks_equal(chunk, restored)

    def test_an_all_air_chunk_is_two_masks_and_a_heightmap(self):
        raw = serialize_chunk(Chunk(0, 0))
        assert raw == bytes(2 + HEIGHTMAP_BYTES)
        _assert_chunks_equal(Chunk(0, 0), deserialize_chunk(0, 0, raw))

    @pytest.mark.parametrize(
        "length",
        [
            0,  # before the blocks mask
            1,  # after the blocks mask
            1 + SECTION_BYTES // 2,  # inside a section
            1 + SECTION_BYTES,  # on a section boundary
            1 + 4 * SECTION_BYTES,  # before the aux mask
            2 + 4 * SECTION_BYTES,  # after the aux mask
            2 + 5 * SECTION_BYTES,  # before the heightmap
            2 + 5 * SECTION_BYTES + HEIGHTMAP_BYTES - 1,  # one byte short
            2 + 5 * SECTION_BYTES + HEIGHTMAP_BYTES + 1,  # one byte over
            2 + 6 * SECTION_BYTES + HEIGHTMAP_BYTES,  # a section over
        ],
    )
    def test_a_cut_or_padded_payload_is_a_named_corrupt_entry(
        self, tmp_path, length
    ):
        raw = serialize_chunk(_terrain_chunk(1, 2))
        assert len(raw) == 2 + 5 * SECTION_BYTES + HEIGHTMAP_BYTES
        bad = (raw + bytes(SECTION_BYTES))[:length]
        with pytest.raises(ValueError, match=f"payload is {length} bytes"):
            deserialize_chunk(1, 2, bad, _never_create)
        store = RegionStore(tmp_path)
        write_region(
            store.region_path(0, 0), 0, 0, {(1, 2): zlib.compress(bad)}
        )
        assert store.load_chunk(1, 2, _never_create) is None
        [entry] = store.corrupt
        assert (entry.cx, entry.cz) == (1, 2)
        assert entry.reason.startswith("payload: chunk payload is")
        world = World(loader=RegionStore(tmp_path).load_chunk)
        generated = world.ensure_chunk(1, 2)  # the fallback: a fresh slot
        assert generated._page.base + generated._slot == 0

    @pytest.mark.parametrize(
        ("at", "refusal"),
        [
            # Eight blocks sections: the aux mask would lie past the end,
            # and counts as no section.
            (0, "not the 33282 its section masks say"),
            # Eight aux sections (4 + 8 in all); the payload holds one.
            (1 + 4 * SECTION_BYTES, "not the 49666 its section masks say"),
        ],
    )
    def test_a_mask_claiming_more_sections_than_the_bytes_hold(
        self, at, refusal
    ):
        raw = bytearray(serialize_chunk(_terrain_chunk(1, 2)))
        raw[at] = 0xFF
        with pytest.raises(ValueError, match=refusal):
            deserialize_chunk(1, 2, bytes(raw), _never_create)

    def test_region_coords_floor_at_negatives(self):
        assert chunk_to_region(0, 0) == (0, 0)
        assert chunk_to_region(31, 31) == (0, 0)
        assert chunk_to_region(32, 0) == (1, 0)
        assert chunk_to_region(-1, -32) == (-1, -1)
        assert chunk_to_region(-33, 5) == (-2, 0)


class TestRegionStore:
    def test_save_load_round_trip_across_regions(self, tmp_path):
        store = RegionStore(tmp_path)
        coords = [(0, 0), (31, 31), (32, 0), (-1, -1), (-40, 7)]
        chunks = [
            _random_chunk(cx, cz, seed=i) for i, (cx, cz) in enumerate(coords)
        ]
        store.save_chunks(chunks)
        # Four distinct regions on disk, no torn temp files left behind.
        assert len(list((tmp_path / "region").glob("r.*.msr"))) == 4
        assert not list((tmp_path / "region").glob("*.tmp"))
        fresh = RegionStore(tmp_path)
        assert fresh.chunk_positions() == set(coords)
        for chunk in chunks:
            _assert_chunks_equal(chunk, fresh.load_chunk(chunk.cx, chunk.cz))
        assert fresh.load_chunk(99, 99) is None

    def test_read_modify_write_preserves_neighbours(self, tmp_path):
        first = _random_chunk(1, 1, seed=1)
        RegionStore(tmp_path).save_chunks([first])
        # A separate store instance (fresh cache) updates the same region.
        second = _random_chunk(2, 2, seed=2)
        RegionStore(tmp_path).save_chunks([second])
        fresh = RegionStore(tmp_path)
        _assert_chunks_equal(first, fresh.load_chunk(1, 1))
        _assert_chunks_equal(second, fresh.load_chunk(2, 2))

    def test_resave_overwrites_in_place(self, tmp_path):
        store = RegionStore(tmp_path)
        chunk = _random_chunk(0, 0, seed=3)
        store.save_chunks([chunk])
        chunk.blocks[0, 0, 10] = Block.STONE
        store.save_chunks([chunk])
        fresh = RegionStore(tmp_path)
        assert fresh.load_chunk(0, 0).blocks[0, 0, 10] == Block.STONE
        assert len(fresh.chunk_positions()) == 1


class TestCrashSafety:
    def _store_with_three_chunks(self, tmp_path):
        store = RegionStore(tmp_path)
        chunks = [_random_chunk(i, 0, seed=i) for i in range(3)]
        store.save_chunks(chunks)
        return chunks, store.region_path(0, 0)

    def test_truncated_region_recovers_intact_chunks(self, tmp_path):
        chunks, path = self._store_with_three_chunks(tmp_path)
        data = path.read_bytes()
        # Chop into the last payload (entries are sorted by chunk coords,
        # so the tail bytes belong to chunk (2, 0)).
        path.write_bytes(data[:-10])
        fresh = RegionStore(tmp_path)
        _assert_chunks_equal(chunks[0], fresh.load_chunk(0, 0))
        _assert_chunks_equal(chunks[1], fresh.load_chunk(1, 0))
        assert fresh.load_chunk(2, 0) is None
        assert [(e.cx, e.cz) for e in fresh.corrupt] == [(2, 0)]
        assert "truncated" in fresh.corrupt[0].reason
        scan = RegionStore(tmp_path).scan()
        assert scan.chunks == 2
        assert len(scan.corrupt_entries) == 1

    def test_bit_flip_is_detected_by_crc(self, tmp_path):
        chunks, path = self._store_with_three_chunks(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # inside the last chunk's compressed payload
        path.write_bytes(bytes(data))
        fresh = RegionStore(tmp_path)
        _assert_chunks_equal(chunks[0], fresh.load_chunk(0, 0))
        assert fresh.load_chunk(2, 0) is None
        assert any("crc" in e.reason for e in fresh.corrupt)

    def test_foreign_file_rejected_whole(self, tmp_path):
        _chunks, path = self._store_with_three_chunks(tmp_path)
        path.write_bytes(b"not a region file at all")
        with pytest.raises(RegionCorruptError, match="magic"):
            read_region(path, 0, 0)
        fresh = RegionStore(tmp_path)
        assert fresh.load_chunk(0, 0) is None
        assert fresh.corrupt  # recorded, not silently zero-filled
        scan = RegionStore(tmp_path).scan()
        assert scan.corrupt_regions and scan.regions == 0


    def test_a_format_1_region_is_refused_naming_its_version(self, tmp_path):
        _chunks, path = self._store_with_three_chunks(tmp_path)
        data = bytearray(path.read_bytes())
        assert data[4] == FORMAT_VERSION == 2  # header: magic, then version
        data[4] = 1
        path.write_bytes(bytes(data))
        with pytest.raises(RegionCorruptError, match="unsupported version 1"):
            read_region(path, 0, 0)
        fresh = RegionStore(tmp_path)
        assert fresh.load_chunk(0, 0) is None
        assert "version 1" in fresh.corrupt[0].reason


class TestWorldHash:
    def test_sensitive_to_content_and_stable_across_round_trip(
        self, tmp_path
    ):
        world = World(generator=TerrainGenerator(seed=5))
        for cx in range(-2, 3):
            for cz in range(-2, 3):
                world.ensure_chunk(cx, cz)
        digest = world_hash(world)
        assert digest == world_hash(world)
        store = RegionStore(tmp_path)
        store.save_chunks(list(world.loaded_chunks()))
        # A world restored entirely from disk hashes identically.
        restored = World(loader=RegionStore(tmp_path).load_chunk)
        for cx, cz in store.chunk_positions():
            restored.ensure_chunk(cx, cz)
        assert world_hash(restored) == digest
        change = world.set_block(0, 100, 0, Block.STONE, log=False)
        assert change is not None  # y=100 is above this terrain: a real write
        assert world_hash(world) != digest


class TestFormat1Cache:
    def test_a_format_1_snapshot_is_re_prepared_not_read(self, tmp_path):
        """A world cache written by a format-1 build — its manifest has no
        ``format`` field and its regions hold version-1 payloads — is
        prepared again, and then loads the world it records."""
        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1)
        store = RegionStore(path)
        world = World(loader=store.load_chunk)
        world.ensure_chunks(sorted(store.chunk_positions()))
        regions = sorted(store.region_dir.glob("r.*.msr"))
        for region in regions:
            rx, rz = (int(part) for part in region.name.split(".")[1:3])
            payloads = {
                (c.cx, c.cz): zlib.compress(_format_1_payload(c))
                for c in world.loaded_chunks()
                if chunk_to_region(c.cx, c.cz) == (rx, rz)
            }
            write_region(region, rx, rz, payloads)
            data = bytearray(region.read_bytes())
            data[4] = 1
            region.write_bytes(bytes(data))
        manifest = read_world_manifest(path)
        del manifest["format"]
        (path / WORLD_MANIFEST).write_text(json.dumps(manifest))
        assert ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1) == (
            path, True,
        )
        assert read_world_manifest(path)["format"] == FORMAT_VERSION
        cache = RegionStore(path)
        restored = World(loader=cache.load_chunk)
        restored.ensure_chunks(sorted(cache.chunk_positions()))
        assert restored.loaded_chunk_count == 9 and not cache.corrupt
        assert world_hash(restored) == world_hash(world)
        assert f"{world_hash(restored):08x}" == manifest["world_hash"]

    def test_a_manifest_of_another_format_alone_re_prepares(self, tmp_path):
        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1)
        manifest = read_world_manifest(path)
        manifest["format"] = 1
        (path / WORLD_MANIFEST).write_text(json.dumps(manifest))
        again = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1)
        assert again == (path, True)
        assert ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1) == (
            path, False,
        )


def test_a_prepared_control_world_is_no_larger_than_format_1():
    """161 321 bytes is what format 1 wrote for this world."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        report = prepare_world(tmp, "control", seed=7, radius=10)
    assert report.chunks == 441
    assert report.bytes_written <= 161_321
