"""Campaign warm world-cache: prepare, warm boot, bit-identity, CLI."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign.cli import main
from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import CampaignSpec
from repro.core.experiment import run_iteration, run_server_chain
from repro.mlg.blocks import Block
from repro.mlg.world import World
from repro.mlg.worldgen import PAPER_SEED, TerrainGenerator
from repro.persistence.store import RegionStore
from repro.persistence.warmup import (
    WORLD_MANIFEST,
    ensure_world_cache,
    prepare_world,
    world_cache_key,
)
from repro.workloads import WORKLOADS, Workload

#: The registered workloads whose ``create_world`` returns bare generated
#: terrain, and so boot from one shared snapshot.
BARE_TERRAIN = ("control", "exploration", "farm", "lag", "players")


class TestPrepareWorld:
    def test_prepare_writes_regions_and_manifest(self, tmp_path):
        report = prepare_world(tmp_path / "w", "control", seed=3, radius=2)
        assert report.chunks == 25
        assert report.bytes_written > 0
        manifest = json.loads((tmp_path / "w" / WORLD_MANIFEST).read_text())
        assert manifest["workload"] == "control"
        assert manifest["world_hash"] == report.world_hash
        assert (tmp_path / "w" / "region").is_dir()

    def test_prepare_replaces_rather_than_merges(self, tmp_path):
        """Re-preparation must not leave stale out-of-footprint chunks
        behind (region saves are read-modify-write; the warm cache
        serves every chunk it holds)."""
        prepare_world(tmp_path / "w", "control", seed=3, radius=3)
        report = prepare_world(tmp_path / "w", "control", seed=3, radius=1)
        assert report.chunks == 9
        from repro.persistence.store import RegionStore

        assert len(RegionStore(tmp_path / "w").chunk_positions()) == 9

    def test_ensure_is_idempotent(self, tmp_path):
        first, prepared = ensure_world_cache(
            tmp_path, "control", 1.0, 3, radius=2
        )
        assert prepared
        stamp = (first / WORLD_MANIFEST).stat().st_mtime_ns
        again = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        assert again == (first, False)
        assert (first / WORLD_MANIFEST).stat().st_mtime_ns == stamp

    def test_ensure_reprepares_on_stale_content(self, tmp_path):
        """The probe-chunk canary: a snapshot whose bytes no longer match
        what today's generator produces is rebuilt even though its
        manifest parameters look right (restored CI cache, worldgen
        drift)."""
        from repro.mlg.blocks import Block
        from repro.persistence.store import RegionStore

        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        store = RegionStore(path)
        probe = min(store.chunk_positions())
        chunk = store.load_chunk(*probe)
        chunk.blocks[0, 0, 100] = Block.TNT  # simulate drifted terrain
        store.save_chunks([chunk])
        again = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        assert again == (path, True)
        rebuilt = RegionStore(path).load_chunk(*probe)
        assert rebuilt.blocks[0, 0, 100] != Block.TNT

    def test_ensure_reprepares_on_parameter_mismatch(self, tmp_path):
        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        manifest = json.loads((path / WORLD_MANIFEST).read_text())
        manifest["seed"] = 999  # pretend it was built from another seed
        (path / WORLD_MANIFEST).write_text(json.dumps(manifest))
        again = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        assert again == (path, True)
        rebuilt = json.loads((path / WORLD_MANIFEST).read_text())
        assert rebuilt["seed"] == 3


class TestCacheKeyIsDerived:
    """The snapshot a workload boots from is named after the terrain its
    ``create_world`` returns, never after a per-workload declaration."""

    def test_registered_workloads_group_by_starting_world(self):
        groups: dict[str, set] = {}
        for name in WORKLOADS:
            for scale in (1.0, 2.0):
                groups.setdefault(world_cache_key(name, scale, 2), set()).add(
                    (name, scale)
                )
        shared = world_cache_key("control", 1.0, 2)
        assert groups.pop(shared) == {
            (name, scale) for name in BARE_TERRAIN for scale in (1.0, 2.0)
        }
        # Workloads that write terrain in ``create_world`` keep a key per
        # workload and scale.
        assert groups == {
            f"{name}-s{scale:g}-seed2": {(name, scale)}
            for name in ("tnt", "flood")
            for scale in (1.0, 2.0)
        }

    def test_shared_key_is_the_generators_identity(self):
        assert (
            world_cache_key("players", 1.0, 2)
            == TerrainGenerator(seed=2 ^ PAPER_SEED).key
        )
        assert world_cache_key("players", 1.0, 2) != world_cache_key(
            "players", 1.0, 3
        )

    def test_a_single_written_block_gets_its_own_key(self, monkeypatch):
        class OneBlock(Workload):
            name = "one-block"

            def create_world(self, seed: int) -> World:
                world = World(generator=TerrainGenerator(seed ^ PAPER_SEED))
                world.set_block(0, 120, 0, Block.STONE, log=False)
                return world

        monkeypatch.setitem(WORKLOADS, OneBlock.name, OneBlock)
        key = world_cache_key(OneBlock.name, 1.0, 2)
        assert key == "one-block-s1-seed2"
        assert key != world_cache_key("control", 1.0, 2)


class TestWarmBoot:
    def test_warm_boot_matches_cold_world_and_is_cheaper(self, tmp_path):
        cache, _ = ensure_world_cache(tmp_path, "control", 1.0, 11, radius=10)
        cold = run_iteration(
            "control",
            "vanilla",
            "das5-2core",
            duration_s=3.0,
            seed=11,
            world_dir=str(tmp_path / "cold"),
        )
        warm = run_iteration(
            "control",
            "vanilla",
            "das5-2core",
            duration_s=3.0,
            seed=11,
            world_cache_dir=str(cache),
        )
        cold_world = cold.telemetry["world"]
        warm_world = warm.telemetry["world"]
        # Identical initial world content, but served from disk...
        assert warm_world["initial_hash"] == cold_world["initial_hash"]
        assert warm_world["chunks_loaded_from_disk"] > 200
        assert cold_world["chunks_loaded_from_disk"] == 0
        # ...which makes the connect-burst tick far cheaper than cold
        # generation (CHUNK_LOAD vs CHUNK_GEN + lighting in the cost
        # model) — the "boots faster" half of the warm-cache claim.
        assert warm.tick_durations_ms[0] < 0.5 * cold.tick_durations_ms[0]


class TestWarmCampaign:
    @pytest.fixture()
    def spec(self, tmp_path):
        return CampaignSpec(
            name="warm",
            servers=["vanilla"],
            workloads=["exploration"],
            environments=["das5-2core"],
            iterations=2,
            duration_s=6.0,
            seed=11,
            output_dir=str(tmp_path / "out"),
            world_dir=str(tmp_path / "worlds"),
            warm_world_cache=True,
            autosave_interval_s=3.0,
            max_loaded_chunks=200,
        )

    def test_iterations_boot_bit_identical_to_cold(self, spec, tmp_path):
        result = CampaignExecutor(spec).run()
        worlds = [it.telemetry["world"] for it in result.iterations]
        hashes = {w["initial_hash"] for w in worlds}
        assert len(result.iterations) == 2
        # Every iteration warm-boots the same on-disk seed...
        assert len(hashes) == 1
        assert all(w["chunks_loaded_from_disk"] > 0 for w in worlds)
        # ...and it is bit-identical to a cold-generated world of the
        # campaign seed (the cache round-trip is lossless).
        cold = run_iteration(
            "exploration",
            "vanilla",
            "das5-2core",
            duration_s=6.0,
            seed=spec.seed,
            world_dir=str(tmp_path / "cold"),
        )
        assert hashes == {cold.telemetry["world"]["initial_hash"]}
        # One cache entry per starting world, named for its key.
        cache_root = Path(spec.output_dir) / "world-cache"
        assert [p.name for p in cache_root.iterdir()] == [
            world_cache_key("exploration", 1.0, spec.seed)
        ]

    def test_live_world_dirs_are_per_iteration(self, spec, tmp_path):
        CampaignExecutor(spec).run()
        cell_dirs = list((tmp_path / "worlds").iterdir())
        assert len(cell_dirs) == 1  # one cell
        iter_dirs = sorted(
            p.name for p in (cell_dirs[0] / "vanilla").iterdir()
        )
        assert iter_dirs == ["iter000", "iter001"]

    def test_rerun_wipes_stale_iteration_worlds(self, tmp_path):
        """A re-run job must not boot from region files a killed attempt
        left behind: the per-iteration world directory starts fresh."""
        from repro.core.config import MeterstickConfig
        from repro.core.experiment import run_server_chain

        def chain(root):
            config = MeterstickConfig(
                servers=["vanilla"],
                world="exploration",
                environment="das5-2core",
                duration_s=5.0,
                seed=11,
                world_dir=str(root),
                autosave_interval_s=2.0,
                max_loaded_chunks=200,
            )
            return run_server_chain(config, "vanilla")

        clean = chain(tmp_path / "clean")[0]
        # Poison the directory a "previous attempt" would have used.
        stale = tmp_path / "stale" / "vanilla" / "iter000" / "region"
        stale.mkdir(parents=True)
        (stale / "r.0.0.msr").write_bytes(b"leftover garbage")
        rerun = chain(tmp_path / "stale")[0]
        assert (
            rerun.telemetry["world"]["initial_hash"]
            == clean.telemetry["world"]["initial_hash"]
        )
        assert rerun.tick_durations_ms == clean.tick_durations_ms


class TestSharedSnapshot:
    """Cells whose workloads share a key boot from one snapshot, and each
    still boots bit-identical to its own cold world."""

    WORKLOADS = ["control", "players", "exploration"]

    @pytest.fixture()
    def campaign(self, tmp_path):
        spec = CampaignSpec(
            name="shared",
            servers=["vanilla"],
            workloads=self.WORKLOADS,
            environments=["das5-2core"],
            iterations=1,
            duration_s=3.0,
            seed=7,
            output_dir=str(tmp_path / "out"),
            warm_world_cache=True,
        )
        return spec, CampaignExecutor(spec).run()

    def test_one_snapshot_serves_every_cell(self, campaign, tmp_path):
        """Each cell's warm boot equals a cold boot of the same cell: the
        cell's own chain (same iteration seed, so the players' bots spawn
        where they did) over an empty cache, so every chunk generates."""
        spec, result = campaign
        cache_root = Path(spec.output_dir) / "world-cache"
        key = world_cache_key("control", 1.0, spec.seed)
        assert [p.name for p in cache_root.iterdir()] == [key]
        warm = {it.workload: it.telemetry["world"] for it in result.iterations}
        assert sorted(warm) == sorted(self.WORKLOADS)
        for cell in spec.cells():
            config = replace(
                spec.cell_config(cell),
                world_cache_dir=str(tmp_path / "empty-cache"),
            )
            [cold] = run_server_chain(config, "vanilla")
            cold_world = cold.telemetry["world"]
            assert cold_world["chunks_loaded_from_disk"] == 0
            assert warm[cell.workload]["chunks_loaded_from_disk"] > 0
            assert (
                warm[cell.workload]["initial_hash"]
                == cold_world["initial_hash"]
            )

    def test_trace_says_where_warm_boot_time_went(self, campaign):
        spec, _ = campaign
        trace = json.loads(
            (Path(spec.output_dir) / "campaign_trace.json").read_text()
        )
        assert "warm_boot_s" in trace["phases"]
        [entry] = trace["world_cache"]
        assert entry["key"] == world_cache_key("control", 1.0, spec.seed)
        assert entry["workloads"] == sorted(self.WORKLOADS)
        assert entry["prepared"] is True
        assert 0.0 < entry["s"] <= trace["phases"]["warm_boot_s"]

    def test_sharing_workloads_and_scales_reuse_the_snapshot(self, tmp_path):
        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        stamp = (path / WORLD_MANIFEST).stat().st_mtime_ns
        for workload, scale in (("players", 1.0), ("control", 2.0)):
            again = ensure_world_cache(tmp_path, workload, scale, 3, radius=2)
            assert again == (path, False)
        assert (path / WORLD_MANIFEST).stat().st_mtime_ns == stamp
        manifest = json.loads((path / WORLD_MANIFEST).read_text())
        assert manifest["key"] == path.name

    def test_second_workload_catches_a_tampered_probe_chunk(self, tmp_path):
        path, _ = ensure_world_cache(tmp_path, "control", 1.0, 3, radius=2)
        store = RegionStore(path)
        probe = max(store.chunk_positions())
        chunk = store.load_chunk(*probe)
        chunk.blocks[0, 0, 100] = Block.TNT
        store.save_chunks([chunk])
        again = ensure_world_cache(tmp_path, "players", 1.0, 3, radius=2)
        assert again == (path, True)
        rebuilt = RegionStore(path).load_chunk(*probe)
        assert rebuilt.blocks[0, 0, 100] != Block.TNT


class TestWorldCli:
    def test_prepare_then_inspect(self, tmp_path, capsys):
        out = tmp_path / "cli-world"
        assert (
            main(
                [
                    "world",
                    "prepare",
                    str(out),
                    "--workload",
                    "control",
                    "--seed",
                    "5",
                    "--radius",
                    "2",
                ]
            )
            == 0
        )
        key = world_cache_key("control", 1.0, 5)
        text = capsys.readouterr().out
        assert "25 chunk(s)" in text
        assert f"key {key}" in text
        manifest = json.loads((out / WORLD_MANIFEST).read_text())
        assert manifest["key"] == key
        assert main(["world", "inspect", str(out)]) == 0
        text = capsys.readouterr().out
        assert "25 chunk(s)" in text
        assert (
            f"content hash: {manifest['world_hash']} (manifest key {key})"
            in text
        )
        assert "recorded hash matches" in text

    def test_inspect_flags_damage(self, tmp_path, capsys):
        out = tmp_path / "cli-world"
        main(["world", "prepare", str(out), "--radius", "1"])
        capsys.readouterr()
        region = next((out / "region").glob("r.*.msr"))
        region.write_bytes(region.read_bytes()[:-6])
        assert main(["world", "inspect", str(out)]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_inspect_flags_manifest_hash_mismatch(self, tmp_path, capsys):
        """CRC-intact content that no longer matches the recorded hash
        (post-prepare edits, stale cache) must fail the exit code too."""
        from repro.mlg.blocks import Block
        from repro.persistence.store import RegionStore

        out = tmp_path / "cli-world"
        main(["world", "prepare", str(out), "--radius", "1"])
        capsys.readouterr()
        store = RegionStore(out)
        chunk = store.load_chunk(0, 0)
        chunk.blocks[0, 0, 100] = Block.TNT
        store.save_chunks([chunk])  # valid CRCs, different content
        assert main(["world", "inspect", str(out)]) == 1
        assert "DOES NOT MATCH" in capsys.readouterr().out
