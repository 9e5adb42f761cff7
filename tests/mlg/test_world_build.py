"""The batch world build against the per-chunk code it replaced.

``worldgen_oracle.py`` holds the old ``TerrainGenerator.__call__`` body and
the old ``LightEngine.light_chunk`` (its 3-D skylight kept in an array of
the oracle's own, now that a chunk stores a count per column); everything
here pins the batch — ``World.ensure_chunks`` →
``TerrainGenerator.generate`` → ``LightEngine.light_chunks`` — to them on
all five terrain fields and on load order, and pins today's worlds to
golden hashes so that a later worldgen change has to say so.
"""

import numpy as np
import pytest
import worldgen_oracle as oracle

from repro.mlg import chunk_arena
from repro.mlg.blocks import Block
from repro.mlg.chat import ChatSystem
from repro.mlg.chunk_arena import Chunk, ChunkArena
from repro.mlg.constants import CHUNK_SIZE, SEA_LEVEL
from repro.mlg.fluids import FluidEngine
from repro.mlg.lighting import LightEngine
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.player import PlayerHandler
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World
from repro.mlg.worldgen import PAPER_SEED, TerrainGenerator
from repro.persistence.store import world_hash
from repro.persistence.warmup import prepare_world

FIELDS = ("blocks", "aux", "skylight", "blocklight", "heightmap")


def _square(lo, hi):
    return [(cx, cz) for cx in range(lo, hi) for cz in range(lo, hi)]


def _oracle_world(seed, coords, loader=None):
    """The old loop: one coordinate at a time through a plain per-chunk
    generator, each generated chunk lit on its own.  ``world.sky`` is the
    oracle's 3-D skylight of the chunks it lit, by coordinates."""
    world = World(generator=oracle.OracleGenerator(seed), loader=loader)
    world.sky = {}
    nodes = []
    for key in coords:
        chunk, source = world.ensure_chunk_tracked(*key)
        if source == "generated":
            nodes.append(oracle.light_chunk(chunk, world.sky))
    return world, nodes


def _batch_world(seed, coords, loader=None):
    world = World(generator=TerrainGenerator(seed), loader=loader)
    ensured = world.ensure_chunks(coords)
    nodes = LightEngine(world).light_chunks(
        [chunk for chunk, source in ensured if source == "generated"]
    )
    return world, nodes


def _want(chunk, name, sky=None):
    """Field ``name`` of an expected chunk: ``skylight`` is the oracle's
    own array where one lit the chunk (``sky``), else the derived one."""
    if name == "skylight" and sky is not None:
        return sky.get((chunk.cx, chunk.cz), 0 * chunk.blocks)
    return getattr(chunk, name)


def _assert_same_world(world, expected):
    assert list(world.loaded_keys()) == list(expected.loaded_keys())
    sky = getattr(expected, "sky", None)
    for chunk, want in zip(world.loaded_chunks(), expected.loaded_chunks()):
        assert chunk._slot == want._slot
        for name in FIELDS:
            np.testing.assert_array_equal(
                getattr(chunk, name), _want(want, name, sky),
                err_msg=f"{name} of chunk ({chunk.cx}, {chunk.cz})",
            )


class TestBatchEqualsOracle:
    # Squares straddle the origin, so half the coordinates are negative.
    @pytest.mark.parametrize(
        "seed, coords",
        [(PAPER_SEED, _square(-8, 9)), (1, _square(-5, 5)), (7, _square(-5, 5))],
        ids=["paper-view", "seed1", "seed7"],
    )
    def test_fields_and_load_order(self, seed, coords):
        world, nodes = _batch_world(seed, coords)
        expected, expected_nodes = _oracle_world(seed, coords)
        _assert_same_world(world, expected)
        assert nodes == expected_nodes == [CHUNK_SIZE**2] * len(coords)
        assert world.chunks_generated_this_tick == len(coords)

    def test_the_compared_area_holds_every_feature_class(self):
        """A tree within two columns of a chunk edge (clipped leaves), a
        kelp stalk and a beach column are all inside the PAPER_SEED view
        the parity test compares, so it compares them."""
        world, _ = _oracle_world(PAPER_SEED, _square(-8, 9))
        edge_tree = kelp = beach = False
        for chunk in world.loaded_chunks():
            lx, lz, _ = np.nonzero(chunk.blocks == Block.WOOD)
            near = (lx < 2) | (lx > 13) | (lz < 2) | (lz > 13)
            edge_tree |= bool(near.any())
            kelp |= bool((chunk.blocks == Block.KELP).any())
            shore = chunk.blocks[:, :, SEA_LEVEL - 3 : SEA_LEVEL + 1]
            beach |= bool((shore == Block.SAND).any())
        assert edge_tree and kelp and beach

    @pytest.mark.parametrize("strip", [1, 17, 289])
    def test_strip_size_does_not_show(self, monkeypatch, strip):
        expected, _ = _batch_world(PAPER_SEED, _square(-8, 9))
        monkeypatch.setattr(chunk_arena, "STRIP_CHUNKS", strip)
        world, _ = _batch_world(PAPER_SEED, _square(-8, 9))
        _assert_same_world(world, expected)

    def test_resident_loaded_and_generated_in_one_batch(self):
        coords = _square(-2, 3)

        def shelf(seed):
            """Every third coordinate is served by the loader."""
            served = {}
            for key in coords[::3]:
                served[key] = Chunk(*key)
                oracle.generate_chunk(seed ^ 0xD15C, served[key])
            return lambda cx, cz, create: served.pop((cx, cz), None)

        # Four chunks resident first; the batch then meets all three.
        world, _ = _batch_world(3, coords[5:9], loader=shelf(3))
        expected, _ = _oracle_world(3, coords[5:9], loader=shelf(3))
        batch = world.ensure_chunks(coords)
        one_by_one = [expected.ensure_chunk_tracked(*key) for key in coords]
        sources = [source for _, source in batch]
        assert sources == [source for _, source in one_by_one]
        assert {"resident", "loaded", "generated"} == set(sources)
        assert [(chunk.cx, chunk.cz) for chunk, _ in batch] == coords
        _assert_same_world(world, expected)

    def test_non_contiguous_slots_across_two_pages(self, monkeypatch):
        monkeypatch.setattr(ChunkArena, "PAGE_SLOTS", 8)
        coords = _square(0, 4)
        built = []
        for build in (_batch_world, _oracle_world):
            world, _ = build(7, _square(-3, 0))  # slots 0..8
            for key in [(-3, -2), (-2, -3), (-1, -1)]:
                world.unload_chunk(*key)  # frees slots 1, 3 and 8
            built.append(world)
        world, expected = built
        lit = world.ensure_chunks(coords)
        LightEngine(world).light_chunks([chunk for chunk, _ in lit])
        for key in coords:
            oracle.light_chunk(expected.ensure_chunk(*key), expected.sky)
        slots = [chunk._page.base + chunk._slot for chunk, _ in lit]
        assert slots[:4] == [1, 3, 8, 9] and len(world._arena._pages) == 3
        _assert_same_world(world, expected)

    def test_free_standing_chunk_is_a_batch_of_one(self):
        chunk, expected = Chunk(-4, 9), Chunk(-4, 9)
        TerrainGenerator(1)(chunk)
        oracle.generate_chunk(1, expected)
        sky = {}
        assert LightEngine(World()).light_chunks([chunk]) == [
            oracle.light_chunk(expected, sky)
        ]
        for name in FIELDS:
            np.testing.assert_array_equal(
                getattr(chunk, name), _want(expected, name, sky)
            )


class TestBlockLight:
    def test_injected_emitters_still_spread_and_are_counted(self):
        coords = _square(0, 3)
        world, _ = _batch_world(7, coords)
        expected, _ = _oracle_world(7, coords)
        for w in (world, expected):
            top = w.column_height(20, 20)
            w.set_block(20, top, 20, Block.TORCH, log=False)
            w.set_block(40, 5, 3, Block.LAVA, log=False)
        report = WorkReport()
        nodes = LightEngine(world).light_chunks(
            list(world.loaded_chunks()), report
        )
        expected_nodes = [
            oracle.light_chunk(chunk, expected.sky)
            for chunk in expected.loaded_chunks()
        ]
        assert nodes == expected_nodes
        assert sorted(nodes)[-3] == CHUNK_SIZE**2 < sorted(nodes)[-2]
        assert report.get(Op.LIGHTING) == sum(expected_nodes)
        assert int(world.get_chunk(1, 1).blocklight[4, 4, top]) == 14
        _assert_same_world(world, expected)

    def test_light_left_by_a_removed_emitter_is_cleared(self):
        world, _ = _batch_world(7, [(0, 0)])
        top = world.column_height(4, 4)
        world.set_block(4, top, 4, Block.TORCH, log=False)
        lights = LightEngine(world)
        chunk = world.get_chunk(0, 0)
        assert lights.light_chunks([chunk])[0] > CHUNK_SIZE**2
        world.set_block(4, top, 4, Block.AIR, log=False)
        assert lights.light_chunks([chunk]) == [CHUNK_SIZE**2]
        assert not chunk.blocklight.any()


class TestHeightmapOwnership:
    def test_world_syncs_heightmaps_for_a_plain_callable(self):
        def generator(chunk):
            chunk.blocks[:, :, : 10 + chunk.cx] = Block.STONE

        world = World(generator=generator)
        world.ensure_chunks(_square(0, 3))
        assert world.column_height(5, 5) == 10
        assert world.column_height(40, 5) == 12

    def test_batch_generator_is_not_rescanned(self, monkeypatch):
        """``TerrainGenerator`` leaves heightmaps in step itself (the
        oracle parity covers their values); nothing recomputes them."""
        monkeypatch.setattr(
            Chunk, "recompute_heightmap",
            lambda self: pytest.fail("heightmap rebuilt after generation"),
        )
        monkeypatch.setattr(
            "repro.mlg.world.column_tops",
            lambda filled: pytest.fail("heightmap rebuilt after generation"),
        )
        World(generator=TerrainGenerator(1)).ensure_chunks(_square(0, 2))


def _connected(seed=PAPER_SEED):
    world = World(generator=TerrainGenerator(seed))
    net = NetworkQueues()
    handler = PlayerHandler(
        world, LightEngine(world), FluidEngine(world), net,
        ChatSystem(net, async_mode=False),
    )
    net.register_client(1, 0, 1000, 1000)
    report = WorkReport()
    handler.connect(1, "p", 8.0, 8.0, report)
    return world, net, report


class TestGolden:
    """Values captured at the parent commit (per-chunk generation)."""

    def test_control_view_after_connect(self):
        world, net, report = _connected()
        assert f"{world_hash(world):08x}" == "c549474f"
        # Key order too: ``total_cost_us`` sums the priced ops in it.
        assert list(report.counts.items()) == [
            (Op.CHUNK_GEN, 288.0),
            (Op.LIGHTING, 73728.0),
            (Op.PACKET, 290.0),
            (Op.BYTES_OUT, 3757044.0),
            (Op.CHUNK_VIEW, 1.0),
        ]
        assert net.stats.counts == {"chunk_data": 289, "player_info": 1}
        assert net.stats.bytes_ == {"chunk_data": 3757000, "player_info": 44}
        assert world.chunks_generated_this_tick == 289
        # The view was lit by the same call; it matches the old loop.
        expected, _ = _oracle_world(PAPER_SEED, [(0, 0), *_square(-8, 9)])
        del expected.sky[0, 0]  # never lit: see the xfail below
        _assert_same_world(world, expected)

    def test_prepared_tnt_snapshot(self, tmp_path):
        report = prepare_world(tmp_path, "tnt")
        assert (report.world_hash, report.chunks) == ("601afe0e", 441)
        assert report.bytes_written == 163937


@pytest.mark.xfail(
    strict=True,
    reason="chunks generated before the first view load are never lit "
    "(ROADMAP item 6(a)); fixing it changes every simulated digest",
)
def test_spawn_chunk_is_lit_after_connect():
    world, _, _ = _connected()
    assert world.get_chunk(0, 0).skylight.any()
