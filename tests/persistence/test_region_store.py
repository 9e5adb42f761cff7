"""Region-file format and store: round trips, atomicity, crash safety."""

import zlib

import numpy as np
import pytest

from repro.mlg.blocks import Block
from repro.mlg.chunk_arena import column_tops
from repro.mlg.constants import CHUNK_SIZE, WORLD_HEIGHT
from repro.mlg.world import Chunk, World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.region import (
    RAW_CHUNK_BYTES,
    RegionCorruptError,
    chunk_to_region,
    compress_payload,
    deserialize_chunk,
    read_region,
    serialize_chunk,
    write_region,
)
from repro.persistence.store import RegionStore, world_hash
from repro.persistence.warmup import (
    WORLD_MANIFEST,
    ensure_world_cache,
    read_world_manifest,
)

#: Bytes in a payload's blocks section, and in its ``aux`` section.
VOXEL_BYTES = CHUNK_SIZE * CHUNK_SIZE * WORLD_HEIGHT
#: Length of a payload without its ``aux`` section.
SHORT_CHUNK_BYTES = RAW_CHUNK_BYTES - VOXEL_BYTES


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


def _long_form(raw: bytes) -> bytes:
    """The payload as every region file written before the short form
    holds it: ``aux`` present, all zero."""
    assert len(raw) == SHORT_CHUNK_BYTES
    return raw[:VOXEL_BYTES] + bytes(VOXEL_BYTES) + raw[VOXEL_BYTES:]


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

    def test_zero_aux_payload_is_short_and_round_trips(self):
        """Free-standing, and into an arena slot whose previous occupant
        wrote ``aux`` all over: the release that freed it zeroed it."""
        chunk = _zero_aux_chunk(3, -7, seed=1)
        raw = serialize_chunk(chunk)
        assert len(raw) == RAW_CHUNK_BYTES - 32768
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

    def test_long_form_zero_aux_payload_loads_bit_identically(self, tmp_path):
        chunk = _zero_aux_chunk(1, 2, seed=4)
        raw = _long_form(serialize_chunk(chunk))
        assert len(raw) == RAW_CHUNK_BYTES
        _assert_chunks_equal(chunk, deserialize_chunk(1, 2, raw))
        store = RegionStore(tmp_path)
        write_region(
            store.region_path(0, 0), 0, 0, {(1, 2): compress_payload(raw)}
        )
        _assert_chunks_equal(chunk, store.load_chunk(1, 2))
        assert not store.corrupt

    @pytest.mark.parametrize(
        "length",
        [0, 10, SHORT_CHUNK_BYTES - 1, SHORT_CHUNK_BYTES + 1,
         RAW_CHUNK_BYTES - 1, RAW_CHUNK_BYTES + 1],
    )
    def test_rejects_wrong_payload_size(self, length):
        with pytest.raises(ValueError) as raised:
            deserialize_chunk(0, 0, b"\x00" * length)
        message = str(raised.value)
        assert f"{length} bytes" in message
        assert str(RAW_CHUNK_BYTES) in message
        assert str(SHORT_CHUNK_BYTES) in message

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


class TestLongFormCache:
    def test_ensure_keeps_a_cache_of_long_form_payloads(self, tmp_path):
        """A world cache restored from before the short form is kept as
        it is, not re-prepared, and loads the world it recorded."""
        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1)
        store = RegionStore(path)
        regions = sorted(store.region_dir.glob("r.*.msr"))
        for region in regions:
            rx, rz = (int(part) for part in region.name.split(".")[1:3])
            payloads, corrupt = read_region(region, rx, rz)
            assert not corrupt
            write_region(region, rx, rz, {
                key: compress_payload(_long_form(zlib.decompress(comp)))
                for key, comp in payloads.items()
            })
        before = {region: region.read_bytes() for region in regions}
        stamp = (path / WORLD_MANIFEST).stat().st_mtime_ns
        again = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=1)
        assert again == (path, False)
        assert (path / WORLD_MANIFEST).stat().st_mtime_ns == stamp
        assert {region: region.read_bytes() for region in regions} == before
        cache = RegionStore(path)
        world = World(loader=cache.load_chunk)
        world.ensure_chunks(sorted(cache.chunk_positions()))
        assert world.loaded_chunk_count == 9 and not cache.corrupt
        manifest = read_world_manifest(path)
        assert f"{world_hash(world):08x}" == manifest["world_hash"]
