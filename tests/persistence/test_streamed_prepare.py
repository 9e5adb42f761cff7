"""The warm-cache prepare walks the world a region at a time.

``prepare_world`` makes one region's chunks resident, saves them with one
``RegionStore.save_chunks`` call and unloads them before the next region;
its ``world_hash`` is ``fold_entries`` over the entries those saves return.
These tests pin the memory bound, the fold's identity with the chain
``world_hash`` runs over a whole world, and ``inspect_world``, which
streams the same way.
"""

import random
import struct
import zlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlg.blocks import Block
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.region import (
    chunk_to_region,
    read_region,
    serialize_chunk,
    write_region,
)
from repro.persistence.store import RegionStore, fold_entries, world_hash
from repro.persistence.warmup import (
    inspect_world,
    prepare_world,
    read_world_manifest,
)
from repro.workloads import get_workload

RADIUS = 10


def _chain(pairs) -> int:
    """``world_hash`` as one sequential CRC-32 chain over ``(cx, cz,
    payload)`` in coordinate order: the definition the fold must keep."""
    digest = 0
    for cx, cz, payload in sorted(pairs):
        digest = zlib.crc32(struct.pack("<qq", cx, cz), digest)
        digest = zlib.crc32(payload, digest)
    return digest


def _entry(cx, cz, payload):
    return cx, cz, zlib.crc32(payload), len(payload)


@pytest.mark.parametrize("workload", ["players", "tnt"])
def test_prepare_holds_one_region_of_the_square_at_a_time(
    tmp_path, monkeypatch, workload
):
    resident = get_workload(workload).create_world(2).loaded_chunk_count
    span = range(-RADIUS, RADIUS + 1)
    shares = {}
    for coords in product(span, span):
        region = chunk_to_region(*coords)
        shares[region] = shares.get(region, 0) + 1
    saves, held = [], []
    save_chunks = RegionStore.save_chunks
    ensure_chunks = World.ensure_chunks

    def spy_save(self, chunks):
        saves.append({chunk_to_region(c.cx, c.cz) for c in chunks})
        return save_chunks(self, chunks)

    def spy_ensure(self, coords):
        ensured = ensure_chunks(self, coords)
        held.append(self.loaded_chunk_count)
        return ensured

    monkeypatch.setattr(RegionStore, "save_chunks", spy_save)
    monkeypatch.setattr(World, "ensure_chunks", spy_ensure)
    report = prepare_world(tmp_path, workload, seed=2, radius=RADIUS)
    monkeypatch.undo()
    # One save per region file, each of one region.
    assert sorted(region for (region,) in saves) == sorted(shares)
    assert max(held) <= resident + max(shares.values())
    # The streamed snapshot is the one a whole-world prepare wrote.
    world = get_workload(workload).create_world(2)
    world.ensure_chunks(product(span, span))
    assert report.chunks == world.loaded_chunk_count
    assert report.world_hash == f"{world_hash(world):08x}"
    store = RegionStore(tmp_path)
    for chunk in world.loaded_chunks():
        stored = store.load_chunk(chunk.cx, chunk.cz)
        assert serialize_chunk(stored) == serialize_chunk(chunk)
    assert not store.corrupt
    files = sorted(store.region_dir.glob("r.*.msr"))
    assert report.bytes_written == sum(f.stat().st_size for f in files)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-70, 70), st.integers(-70, 70)),
        st.binary(max_size=64),
        max_size=12,
    ),
    st.randoms(use_true_random=False),
)
def test_the_fold_of_shuffled_entries_is_the_chain(payloads, shuffle):
    pairs = [(cx, cz, payload) for (cx, cz), payload in payloads.items()]
    entries = [_entry(*pair) for pair in pairs]
    shuffle.shuffle(entries)
    assert fold_entries(entries) == _chain(pairs)


def test_the_fold_spans_payloads_longer_than_its_zero_buffer():
    rng = np.random.default_rng(3)
    pairs = [
        (0, 0, rng.bytes(70_000)),
        (-1, 5, bytes(140_000)),
        (2, -3, rng.bytes(65_536)),
        (2, -2, b""),
    ]
    entries = [_entry(*pair) for pair in pairs]
    assert fold_entries(reversed(entries)) == _chain(pairs)


@settings(max_examples=15, deadline=None)
@given(
    st.sets(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.integers(0, 15), st.integers(0, 127), st.integers(0, 15)
        ),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_world_hash_is_the_fold_of_the_saves_in_any_order(
    tmp_path_factory, coords, writes, shuffle
):
    """The entries ``save_chunks`` returns fold, in any order of saves, to
    ``world_hash`` of the same chunks held at once — which is the chain."""
    world = World(generator=TerrainGenerator(seed=9))
    coords = sorted(coords)
    world.ensure_chunks(coords)
    for (cx, cz), (lx, y, lz) in zip(coords, writes):
        world.set_block(cx * 16 + lx, y, cz * 16 + lz, Block.STONE, aux=lx + 1)
    chunks = list(world.loaded_chunks())
    shuffle.shuffle(chunks)
    store = RegionStore(tmp_path_factory.mktemp("fold"))
    entries = []
    for chunk in chunks:
        entries += store.save_chunks([chunk])
    pairs = [(c.cx, c.cz, serialize_chunk(c)) for c in chunks]
    assert fold_entries(entries) == world_hash(world) == _chain(pairs)


def test_inspect_streams_a_snapshot_and_names_what_does_not_decode(tmp_path):
    report = prepare_world(tmp_path, "tnt", seed=2, radius=3)
    info = inspect_world(tmp_path)
    assert info["world_hash"] == report.world_hash
    assert info["world_hash"] == read_world_manifest(tmp_path)["world_hash"]
    assert info["chunks"] == report.chunks
    assert info["corrupt_entries"] == []
    # Replace one payload with a deflated one whose CRC is intact but
    # whose bytes are not a chunk.
    store = RegionStore(tmp_path)
    positions = sorted(store.chunk_positions())
    cx, cz = random.Random(5).choice(positions)
    rx, rz = chunk_to_region(cx, cz)
    path = store.region_path(rx, rz)
    table, _ = read_region(path, rx, rz)
    table[(cx, cz)] = zlib.compress(b"\x01 not a chunk")
    write_region(path, rx, rz, table)
    info = inspect_world(tmp_path)
    (damage,) = info["corrupt_entries"]
    assert (damage["cx"], damage["cz"]) == (cx, cz)
    assert damage["reason"].startswith("payload:")
    # Hashed: every chunk that decodes, and only those.
    intact = World(loader=RegionStore(tmp_path).load_chunk)
    intact.ensure_chunks(p for p in positions if p != (cx, cz))
    assert info["world_hash"] == f"{world_hash(intact):08x}"
    assert info["world_hash"] != report.world_hash
