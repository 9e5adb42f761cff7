"""Chunk lifecycle: autosave scheduling, flush spikes, eviction invariants."""

import numpy as np
import pytest

from repro.cloud.providers import get_environment
from repro.mlg.blocks import Block
from repro.mlg.server import MLGServer
from repro.mlg.workreport import Op
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.store import RegionStore


def _machine(seed=1):
    return get_environment("das5-2core").create_machine(seed=seed)


def _server(tmp_path=None, *, generator_seed=9, **knobs):
    world = World(generator=TerrainGenerator(seed=generator_seed))
    if tmp_path is not None:
        knobs.setdefault("world_dir", str(tmp_path / "world"))
    return MLGServer("vanilla", _machine(), world=world, seed=3, **knobs)


class TestAutosave:
    def test_interval_save_charges_autosave_bucket(self, tmp_path):
        server = _server(tmp_path, autosave_interval_s=2.0)
        server.world.set_block(8, 80, 8, Block.STONE, log=False)
        saves = [
            r.breakdown_us.get("Autosave", 0.0) for r in server.run_for(5.0)
        ]
        assert sum(saves) > 0
        assert server.lifecycle.autosaves >= 2
        assert server.disk_bytes_written > 0
        assert (tmp_path / "world" / "region").is_dir()
        # Saved chunks are clean again afterwards.
        assert server.lifecycle.dirty_count() == 0

    def test_incremental_saves_are_bounded_per_tick(self, tmp_path):
        server = _server(
            tmp_path, autosave_interval_s=2.0, autosave_flush_every=0
        )
        # Dirty a large area: far more chunks than one tick's save batch.
        server.world.fill(0, 60, 0, 159, 60, 159, Block.STONE)
        writes = []
        original = server.lifecycle.store.save_chunks
        server.lifecycle.store.save_chunks = lambda chunks: writes.append(
            len(chunks)
        ) or original(chunks)
        per_tick = [
            r.breakdown_us.get("Autosave", 0.0) for r in server.run_for(3.0)
        ]
        cost = server.variant.cost_table[Op.CHUNK_SAVE]
        cap = ChunkLifecycle.SAVE_CHUNKS_PER_TICK * cost
        assert max(per_tick) > 0
        assert max(per_tick) <= cap + 1e-6
        # The backlog drains across several consecutive ticks.
        assert sum(1 for us in per_tick if us > 0) >= 3
        # The 100-chunk backlog spans one region: the drain charges work
        # per tick but stages the bytes, rewriting the region file once
        # per cycle — not once per 16-chunk batch.
        assert len(writes) == 1 and writes[0] == 100

    def test_full_flush_produces_the_tick_spike(self, tmp_path):
        server = _server(
            tmp_path, autosave_interval_s=1.0, autosave_flush_every=1
        )
        # A 100-chunk dirty backlog, flushed in one tick (flush_every=1).
        server.world.fill(0, 60, 0, 159, 60, 159, Block.STONE)
        per_tick = [
            r.breakdown_us.get("Autosave", 0.0) for r in server.run_for(2.0)
        ]
        cost = server.variant.cost_table[Op.CHUNK_SAVE]
        cap = ChunkLifecycle.SAVE_CHUNKS_PER_TICK * cost
        assert server.lifecycle.full_flushes >= 1
        # The save-all flush writes far more than an incremental batch in
        # one tick — the classic autosave spike.
        assert max(per_tick) == pytest.approx(100 * cost)
        assert max(per_tick) > 3 * cap

    def test_no_store_means_no_real_saves(self):
        server = _server(None, max_loaded_chunks=500)
        server.world.set_block(8, 80, 8, Block.STONE, log=False)
        server.run_for(2.0)
        assert server.lifecycle is not None
        assert server.lifecycle.chunks_saved == 0
        assert server.disk_bytes_written == 0

    def test_storeless_lifecycle_keeps_synthetic_disk_metric(self):
        # Eviction/warm-cache without a world_dir: no region IO, but the
        # legacy 4 KiB/dirty-chunk model still feeds disk_bytes_written —
        # without clearing dirty flags (eviction safety relies on them),
        # and charging each dirtied chunk once, not once per interval.
        server = _server(None, max_loaded_chunks=500)
        server.world.set_block(8, 80, 8, Block.STONE, log=False)
        server.run_for(95.0, max_ticks=1925)  # two autosave intervals
        assert server.lifecycle.chunks_saved == 0
        assert server.disk_bytes_written == 4096
        assert server.world.get_chunk(0, 0).dirty


class TestEviction:
    def _grow(self, server, n_side=12):
        """Force an n_side² chunk square into memory (no players)."""
        for cx in range(n_side):
            for cz in range(n_side):
                server.world.ensure_chunk(cx, cz)

    def test_never_evicts_dirty_chunks(self, tmp_path):
        server = _server(
            tmp_path, autosave_interval_s=1000.0, max_loaded_chunks=10
        )
        self._grow(server)
        for chunk in server.world.loaded_chunks():
            chunk.dirty = True
        server.run_for(2.0)
        # Way over the cap, but nothing was clean: nothing may be dropped.
        assert server.world.loaded_chunk_count == 144
        assert server.lifecycle.chunks_evicted == 0

    def test_evicts_clean_chunks_down_to_the_cap(self, tmp_path):
        server = _server(
            tmp_path, autosave_interval_s=1.0, max_loaded_chunks=10
        )
        self._grow(server)
        reference = server.world.get_chunk(0, 0).blocks.copy()
        # Generated chunks start clean but unsaved; autosave persists
        # them incrementally, after which eviction may drop them.
        server.run_for(15.0)
        assert server.lifecycle.chunks_saved == 144
        assert server.world.loaded_chunk_count == 10
        assert server.lifecycle.chunks_evicted >= 134
        # An evicted chunk streams back bit-identically, as a disk load.
        assert not server.world.has_chunk(0, 0)
        chunk, source = server.world.ensure_chunks([(0, 0)])[0]
        assert source == "loaded"
        np.testing.assert_array_equal(chunk.blocks, reference)

    def test_view_chunks_are_never_evicted(self, tmp_path):
        server = _server(
            tmp_path, autosave_interval_s=1.0, max_loaded_chunks=1
        )
        server.connect_client("p", 8.0, 8.0, 1000, 1000, view_distance=3)
        server.run_for(10.0)
        view_span = 2 * (3 + ChunkLifecycle.EVICT_MARGIN) + 1
        # The whole view square (with margin) stays resident despite the
        # absurd cap of one chunk.
        assert server.world.loaded_chunk_count >= (2 * 3 + 1) ** 2
        assert server.world.loaded_chunk_count <= view_span**2
        assert server.world.has_chunk(0, 0)

    def test_player_reentry_reloads_evicted_view_chunks(self, tmp_path):
        """The view-path half of the churn cycle: a chunk a player has
        already been sent must stream back in when they re-enter it
        after eviction (their loaded_chunks memory must not mask it)."""
        from repro.mlg.workreport import WorkReport

        server = _server(
            tmp_path, autosave_interval_s=1.0, max_loaded_chunks=20
        )
        server.connect_client("p", 8.0, 8.0, 1000, 1000, view_distance=2)
        conn = server.players.players[1]
        # March far away: the origin view leaves every anchor...
        conn.x, conn.z = 400.0, 400.0
        server.players._load_view(conn, WorkReport())
        server.run_for(5.0)  # autosave persists, eviction drops origin
        assert not server.world.has_chunk(0, 0)
        # ...and re-entering must reload it from disk, charged as such.
        conn.x, conn.z = 8.0, 8.0
        report = WorkReport()
        server.players._load_view(conn, report)
        assert report.get(Op.CHUNK_LOAD) >= 1
        assert server.world.has_chunk(0, 0)

    def test_unsaveable_unregenerable_chunks_stay_resident(self):
        # No generator, no store: eviction has nowhere to bring chunks
        # back from, so even clean chunks must stay.
        world = World()
        world.fill(0, 10, 0, 100, 10, 100, Block.STONE)
        for chunk in world.loaded_chunks():
            chunk.dirty = False
        server = MLGServer(
            "vanilla", _machine(), world=world, seed=3, max_loaded_chunks=2
        )
        server.run_for(2.0)
        assert world.loaded_chunk_count == 49
        assert server.lifecycle.chunks_evicted == 0


class TestSimulationAnchors:
    """Eviction must not pull terrain out from under active simulation
    state — fluid queues, redstone nets, and entities all read the world
    through the AIR-for-unloaded bulk queries."""

    def test_anchor_sources_include_a_one_chunk_ring(self):
        server = _server(None, max_loaded_chunks=1000)
        server.world.set_block(85, 40, 85, Block.WATER_SOURCE, log=False)
        server.fluids.schedule_neighbors(85, 41, 85)  # queues it: chunk (5, 5)
        server.entities.spawn("mob", 200.0, 70.0, 200.0)  # chunk (12, 12)
        server.redstone.register_observer(300, 40, 300)  # chunk (18, 18)
        anchors = server.simulation_anchor_chunks()
        for center in ((5, 5), (12, 12), (18, 18)):
            for dx in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    assert (center[0] + dx, center[1] + dz) in anchors

    def test_entity_chunks_survive_eviction(self, tmp_path):
        server = _server(
            tmp_path, autosave_interval_s=1.0, max_loaded_chunks=5
        )
        for cx in range(10):
            for cz in range(10):
                server.world.ensure_chunk(cx, cz)
        server.entities.spawn("mob", 100.0, 90.0, 100.0)  # chunk (6, 6)
        server.run_for(10.0)
        # Everything else was saved and evicted down toward the cap, but
        # the mob's chunk (and its ring) stayed resident.
        assert server.lifecycle.chunks_evicted > 0
        for dx in (-1, 0, 1):
            for dz in (-1, 0, 1):
                assert server.world.has_chunk(6 + dx, 6 + dz)


class TestPersistenceOffBitIdentity:
    def test_default_server_has_no_lifecycle(self):
        server = _server(None)
        assert server.lifecycle is None

    def test_disabled_persistence_matches_plain_run(self):
        """world_dir=None must leave the simulation bit-identical."""

        def run(**knobs):
            server = _server(None, **knobs)
            server.connect_client("p", 8.0, 8.0, 1000, 1000, 4)
            records = server.run_for(6.0)
            return [
                (r.work_us, r.duration_us, r.breakdown_us) for r in records
            ]

        assert run() == run()

    def test_legacy_autosave_model_still_runs_without_store(self):
        server = _server(None)
        server.world.set_block(1, 80, 1, Block.STONE, log=False)
        server.run_for(46.0, max_ticks=925)
        assert server.disk_bytes_written > 0  # the 4 KiB/dirty-chunk model


class TestLoaderPriority:
    def test_live_store_wins_over_warm_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        world = World(generator=TerrainGenerator(seed=9))
        world.ensure_chunk(0, 0)
        RegionStore(cache_dir).save_chunks(list(world.loaded_chunks()))

        live_dir = tmp_path / "live"
        modified = world.get_chunk(0, 0)
        modified.blocks[0, 0, 120] = Block.TNT
        RegionStore(live_dir).save_chunks([modified])

        server = MLGServer(
            "vanilla",
            _machine(),
            world=World(generator=TerrainGenerator(seed=9)),
            world_dir=str(live_dir),
            world_cache_dir=str(cache_dir),
        )
        chunk, source = server.world.ensure_chunks([(0, 0)])[0]
        assert source == "loaded"
        assert chunk.blocks[0, 0, 120] == Block.TNT

    def test_cache_misses_fall_back_to_generation(self, tmp_path):
        server = MLGServer(
            "vanilla",
            _machine(),
            world=World(generator=TerrainGenerator(seed=9)),
            world_cache_dir=str(tmp_path / "empty-cache"),
        )
        _chunk, source = server.world.ensure_chunks([(5, 5)])[0]
        assert source == "generated"


class TestLifecycleValidation:
    def test_bad_knobs_raise(self):
        world = World()
        with pytest.raises(ValueError, match="interval"):
            ChunkLifecycle(world, autosave_interval_ticks=0)
        with pytest.raises(ValueError, match="max_loaded_chunks"):
            ChunkLifecycle(world, max_loaded_chunks=0)
