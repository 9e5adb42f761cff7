"""Tests for campaign spec loading/validation and job planning."""

import json

import pytest

from repro.campaign import CampaignSpec, JobPlanner
from repro.core.config import MeterstickConfig, stable_crc


def small_spec(**kwargs) -> CampaignSpec:
    base = dict(
        name="t",
        servers=["vanilla", "papermc"],
        workloads=["control", "players"],
        environments=["das5-2core", "aws-t3.large"],
        iterations=2,
        duration_s=2.0,
        seed=7,
    )
    base.update(kwargs)
    return CampaignSpec(**base)


class TestSpec:
    def test_cell_count_is_axis_product(self):
        spec = small_spec(scales=[1.0, 2.0], bot_counts=[5, 10])
        assert spec.n_cells == 2 * 2 * 2 * 2 * 2
        assert len(spec.cells()) == spec.n_cells

    def test_unknown_axis_values_rejected(self):
        with pytest.raises(ValueError):
            small_spec(servers=["notaserver"])
        with pytest.raises(ValueError):
            small_spec(workloads=["notaworkload"])
        with pytest.raises(ValueError):
            small_spec(environments=["notacloud"])
        with pytest.raises(ValueError):
            small_spec(behaviors=["moonwalk"])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            small_spec(servers=[])

    def test_cell_config_materializes_meterstick_config(self):
        spec = small_spec(bot_counts=[5], behaviors=["idle"])
        cell = spec.cells()[0]
        config = spec.cell_config(cell)
        assert isinstance(config, MeterstickConfig)
        assert config.servers == [cell.server]
        assert config.world == cell.workload
        assert config.environment == cell.environment
        assert config.number_of_bots == 5
        assert config.behavior == "idle"
        assert config.iterations == 2
        assert config.seed == 7

    def test_overrides_patch_matching_cells_only(self):
        spec = small_spec(
            overrides=[
                {
                    "where": {"workload": "players"},
                    "set": {"duration_s": 4.0, "warm_machines": True},
                }
            ]
        )
        for cell in spec.cells():
            config = spec.cell_config(cell)
            if cell.workload == "players":
                assert config.duration_s == 4.0
                assert config.warm_machines is True
            else:
                assert config.duration_s == 2.0
                assert config.warm_machines is False

    def test_cell_iterations_follows_overrides(self):
        spec = small_spec(
            warm_world_cache=True,
            overrides=[
                {"where": {"workload": "players"}, "set": {"iterations": 5}},
                {"where": {"server": "vanilla"}, "set": {"iterations": 3}},
            ],
        )
        counts = set()
        for cell in spec.cells():
            iterations = spec.cell_iterations(cell)
            assert iterations == spec.cell_config(cell).iterations
            counts.add(iterations)
        assert counts == {2, 3, 5}

    def test_bad_override_keys_rejected(self):
        with pytest.raises(ValueError):
            small_spec(overrides=[{"where": {"nope": 1}, "set": {}}])
        with pytest.raises(ValueError):
            small_spec(overrides=[{"where": {}, "set": {"ips": []}}])
        with pytest.raises(ValueError, match="ram_gb"):
            small_spec(overrides=[{"where": {}, "set": {"ram_gb": 8}}])

    def test_cell_identity_fields_not_overridable(self):
        """Axis fields and seed define job ids; patching them would desync
        the recorded cell from the config that actually ran."""
        for field in ("scale", "number_of_bots", "behavior", "seed"):
            with pytest.raises(ValueError, match="unsupported config"):
                small_spec(overrides=[{"where": {}, "set": {field: 1}}])

    def test_json_file_round_trip(self, tmp_path):
        spec = small_spec(scales=[1.0, 1.5])
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        loaded = CampaignSpec.from_file(path)
        assert loaded == spec

    def test_yaml_file_load(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        spec = small_spec()
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(spec.to_dict()))
        assert CampaignSpec.from_file(path) == spec

    def test_unknown_spec_fields_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "x", "frobnicate": True}))
        with pytest.raises(ValueError, match="frobnicate"):
            CampaignSpec.from_file(path)


class TestPlanner:
    def test_plan_is_deterministic(self):
        jobs_a = JobPlanner(small_spec()).plan()
        jobs_b = JobPlanner(small_spec()).plan()
        assert jobs_a == jobs_b
        assert len(jobs_a) == 8
        assert [job.index for job in jobs_a] == list(range(8))

    def test_job_ids_unique_and_stable_crc(self):
        spec = small_spec()
        jobs = JobPlanner(spec).plan()
        ids = [job.job_id for job in jobs]
        assert len(set(ids)) == len(ids)
        for job in jobs:
            assert job.job_id == f"{stable_crc(spec.seed, job.cell.key()):08x}"

    def test_seed_changes_job_ids(self):
        ids_a = {j.job_id for j in JobPlanner(small_spec(seed=7)).plan()}
        ids_b = {j.job_id for j in JobPlanner(small_spec(seed=8)).plan()}
        assert ids_a.isdisjoint(ids_b)

    def test_job_config_matches_cell(self):
        spec = small_spec()
        planner = JobPlanner(spec)
        job = planner.plan()[3]
        config = planner.job_config(job)
        assert config.servers == [job.server]
        assert config.world == job.workload
        assert config.environment == job.environment
