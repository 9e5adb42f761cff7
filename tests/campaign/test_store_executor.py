"""Tests for the on-disk job store and the parallel/serial executor."""

import dataclasses
import json
import multiprocessing
import os

import pytest

from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    JobPlanner,
    JobStore,
)
from repro.campaign import executor as executor_module
from repro.campaign import store as store_module
from repro.core.experiment import run_iteration, run_server_chain
from repro.reporting.dataset import load_dataset


def tiny_spec(tmp_path, **kwargs) -> CampaignSpec:
    base = dict(
        name="tiny",
        servers=["vanilla", "papermc"],
        workloads=["control"],
        environments=["das5-2core", "aws-t3.large"],
        iterations=2,
        duration_s=1.5,
        seed=11,
        output_dir=str(tmp_path / "out"),
    )
    base.update(kwargs)
    return CampaignSpec(**base)


class TestStore:
    def test_shard_round_trip(self, tmp_path):
        spec = tiny_spec(tmp_path)
        job = JobPlanner(spec).plan()[0]
        iterations = run_server_chain(
            JobPlanner(spec).job_config(job), job.server
        )
        store = JobStore(spec.output_dir)
        store.save_job(job, iterations)
        loaded = store.load_job(job.job_id)
        assert loaded == iterations
        assert store.completed_ids() == {job.job_id}

    def test_no_torn_shards(self, tmp_path):
        spec = tiny_spec(tmp_path)
        store = JobStore(spec.output_dir)
        job = JobPlanner(spec).plan()[0]
        store.save_job(job, [])
        # The atomic-write temp file must not linger as a phantom shard.
        assert list(store.shard_dir.glob("*.tmp")) == []

    def test_parent_format_shard_still_loads(self, tmp_path):
        """Shards written before they lost their indentation (by the
        parent process, ``indent=2``) read exactly as they did."""
        spec = tiny_spec(tmp_path, servers=["vanilla"])
        merged = CampaignExecutor(spec, jobs=1).run()
        store = JobStore(spec.output_dir)
        for job in store.manifest_jobs():
            path = store.shard_path(job.job_id)
            unindented = path.read_text()
            assert "\n" not in unindented
            path.write_text(json.dumps(json.loads(unindented), indent=2))
            assert path.read_text() != unindented
        plan = store.manifest_jobs()
        assert store.load_job(plan[0].job_id) == merged.iterations[:2]
        assert store.merge() == merged
        dataset = load_dataset(store)
        assert dataset.completed_jobs == dataset.total_jobs == len(plan)
        # Resume accepts them as done: nothing is re-run.
        resumed = CampaignExecutor(spec, jobs=1).run(resume=True)
        assert resumed == merged
        assert "\n" in store.shard_path(plan[0].job_id).read_text()

    def test_to_dict_is_the_asdict_form(self, tmp_path):
        """Shallow ``to_dict`` serialises to what the deep copy did, for
        an iteration carrying every telemetry section there is."""
        iteration = run_iteration(
            "exploration", "vanilla", "aws-t3.large", 2.0, seed=4,
            n_bots=5, trace=True, world_dir=str(tmp_path / "world"),
            max_loaded_chunks=120, autosave_interval_s=1.0,
        )
        assert {"trace", "world", "tick"} <= set(iteration.telemetry)
        old_form = dataclasses.asdict(iteration)
        old_form["isr"] = iteration.isr
        data = iteration.to_dict()
        assert list(data) == list(old_form)
        assert json.dumps(data) == json.dumps(old_form)
        assert data["telemetry"] is iteration.telemetry  # no copy made
        reloaded = type(iteration).from_dict(json.loads(json.dumps(data)))
        assert reloaded == iteration

    def test_merge_orders_by_plan_index(self, tmp_path):
        spec = tiny_spec(tmp_path)
        planner = JobPlanner(spec)
        plan = planner.plan()
        store = JobStore(spec.output_dir)
        store.write_manifest(spec, plan)
        # Save shards in reverse order; merge must restore plan order.
        for job in reversed(plan):
            store.save_job(
                job, run_server_chain(planner.job_config(job), job.server)
            )
        merged = store.merge()
        cells = [
            (it.server, it.environment, it.iteration)
            for it in merged.iterations
        ]
        expected = [
            (job.server, job.environment, iteration)
            for job in plan
            for iteration in range(spec.iterations)
        ]
        assert cells == expected


class TestExecutor:
    def test_serial_and_parallel_results_identical(self, tmp_path):
        spec_a = tiny_spec(tmp_path, output_dir=str(tmp_path / "serial"))
        spec_b = tiny_spec(tmp_path, output_dir=str(tmp_path / "parallel"))
        serial = CampaignExecutor(spec_a, jobs=1).run()
        parallel = CampaignExecutor(spec_b, jobs=2).run()
        assert len(serial.iterations) == 2 * 2 * 2
        assert serial.iterations == parallel.iterations
        # Byte-identical shards on disk, too: the one a pool worker
        # wrote, the one the parent wrote inline, and the one ``save_job``
        # writes from the loaded results.
        rewritten = JobStore(tmp_path / "rewritten")
        for job in JobPlanner(spec_a).plan():
            shard = JobStore(spec_a.output_dir).shard_path(job.job_id)
            twin = JobStore(spec_b.output_dir).shard_path(job.job_id)
            assert shard.read_bytes() == twin.read_bytes()
            iterations = JobStore(spec_b.output_dir).load_job(job.job_id)
            again = rewritten.save_job(job, iterations)
            assert again.read_bytes() == shard.read_bytes()
        assert list((tmp_path / "parallel" / "jobs").glob("*.tmp")) == []

    def test_matches_sequential_experiment_runner(self, tmp_path):
        """A one-cell campaign reproduces ExperimentRunner bit for bit."""
        from repro.core import ExperimentRunner

        spec = tiny_spec(tmp_path, servers=["vanilla"],
                         environments=["aws-t3.large"])
        campaign = CampaignExecutor(spec, jobs=1).run()
        runner_result = ExperimentRunner(
            spec.cell_config(spec.cells()[0])
        ).run()
        assert campaign.iterations == runner_result.iterations

    def test_resume_skips_completed_shards(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path)
        plan = JobPlanner(spec).plan()
        executor = CampaignExecutor(spec, jobs=1)
        executor.run()
        store = JobStore(spec.output_dir)
        assert store.completed_ids() == {job.job_id for job in plan}
        # Drop two shards to simulate a kill, then count re-executions.
        killed = [plan[1], plan[3]]
        for job in killed:
            store.shard_path(job.job_id).unlink()
        executed = []
        real_execute = executor_module.execute_job

        def counting_execute(payload):
            executed.append(payload["job"]["job_id"])
            return real_execute(payload)

        monkeypatch.setattr(
            executor_module, "execute_job", counting_execute
        )
        resumed = CampaignExecutor(spec, jobs=1).run(resume=True)
        assert sorted(executed) == sorted(job.job_id for job in killed)
        assert len(resumed.iterations) == len(plan) * spec.iterations

    def test_resume_reruns_a_shard_that_no_longer_parses(
        self, tmp_path, capsys
    ):
        spec = tiny_spec(tmp_path)
        plan = JobPlanner(spec).plan()
        merged = CampaignExecutor(spec, jobs=1).run()
        store = JobStore(spec.output_dir)
        victim = plan[2]
        path = store.shard_path(victim.job_id)
        intact = path.read_bytes()
        capsys.readouterr()
        for cut in (0, 1, len(intact) // 2, len(intact) - 1):
            path.write_bytes(intact[:cut])
            assert victim.job_id in store.completed_ids()  # a file is there
            resumed = CampaignExecutor(spec, jobs=1).run(resume=True)
            said = [
                line
                for line in capsys.readouterr().out.splitlines()
                if "does not parse" in line
            ]
            assert len(said) == 1 and victim.job_id in said[0]
            assert path.read_bytes() == intact
            assert resumed == merged
        # With every shard whole again, resume has nothing to say or do.
        CampaignExecutor(spec, jobs=1).run(resume=True)
        assert "does not parse" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "damage",
        [b'{"iterations": [{}]}', b"{}", b"[]", b'{"iterations": [5]}'],
        ids=["empty-iteration", "no-iterations", "a-list", "a-number"],
    )
    def test_resume_reruns_a_shard_that_parses_to_no_result(
        self, tmp_path, capsys, damage
    ):
        spec = tiny_spec(
            tmp_path, servers=["vanilla"], environments=["das5-2core"],
            iterations=1,
        )
        merged = CampaignExecutor(spec, jobs=1).run()
        store = JobStore(spec.output_dir)
        (job_id,) = store.completed_ids()
        path = store.shard_path(job_id)
        intact = path.read_bytes()
        path.write_bytes(damage)
        capsys.readouterr()
        resumed = CampaignExecutor(spec, jobs=1).run(resume=True)
        assert f"resume: shard of job {job_id} does not parse" in (
            capsys.readouterr().out
        )
        assert path.read_bytes() == intact
        assert resumed == merged

    def test_worker_killed_before_the_rename_leaves_no_shard(self, tmp_path):
        spec = tiny_spec(tmp_path, servers=["vanilla"], iterations=1)
        job = JobPlanner(spec).plan()[0]
        store = JobStore(spec.output_dir)
        payload = {
            "spec": spec.to_dict(),
            "job": job.to_dict(),
            "store": str(store.root),
        }

        def die_at_the_rename():
            store_module.os.replace = lambda src, dst: os._exit(17)
            executor_module.execute_job(payload)

        worker = multiprocessing.get_context("fork").Process(
            target=die_at_the_rename
        )
        worker.start()
        worker.join(60)
        assert worker.exitcode == 17
        # The chain ran (its sidecar is there) and the shard was being
        # written, but nothing ``completed_ids`` would count exists.
        assert store.telemetry_path(job.job_id).exists()
        assert [p.name for p in store.shard_dir.iterdir()] == [
            f"{job.job_id}.json.tmp"
        ]
        assert store.completed_ids() == set()
        assert store.load_job(job.job_id) is None
        # The next attempt replaces the leftover and finishes the job.
        _, shard, phases = executor_module.execute_job(payload)
        assert shard == str(store.shard_path(job.job_id))
        assert set(phases) == {"plan_s", "iterate_s", "externalize_s"}
        assert [p.name for p in store.shard_dir.iterdir()] == [
            f"{job.job_id}.json"
        ]

    def test_resume_refuses_edited_spec(self, tmp_path):
        spec = tiny_spec(tmp_path)
        CampaignExecutor(spec, jobs=1).run()
        JobStore(spec.output_dir).shard_path(
            JobPlanner(spec).plan()[0].job_id
        ).unlink()
        edited = tiny_spec(tmp_path, duration_s=3.0)
        with pytest.raises(ValueError, match="duration_s"):
            CampaignExecutor(edited, jobs=1).run(resume=True)
        # Execution knobs may change freely between run and resume.
        relocated = tiny_spec(tmp_path, jobs=4)
        CampaignExecutor(relocated, jobs=1).run(resume=True)

    def test_fresh_run_refuses_populated_store(self, tmp_path):
        spec = tiny_spec(tmp_path)
        CampaignExecutor(spec, jobs=1).run()
        with pytest.raises(FileExistsError):
            CampaignExecutor(spec, jobs=1).run()

    def test_foreign_shards_rejected(self, tmp_path):
        spec = tiny_spec(tmp_path)
        store = JobStore(spec.output_dir)
        store.shard_dir.mkdir(parents=True)
        (store.shard_dir / "deadbeef.json").write_text(
            json.dumps({"job": {}, "iterations": []})
        )
        with pytest.raises(ValueError, match="different campaign"):
            CampaignExecutor(spec, jobs=1).run(resume=True)

    def test_tcp_cell_is_refused_before_anything_is_written(self, tmp_path):
        # A tcp cell run in-process would stamp `transport: tcp` on
        # measurements no socket carried; the error names the verb.
        spec = tiny_spec(
            tmp_path,
            overrides=[
                {"where": {"server": "papermc"}, "set": {"transport": "tcp"}}
            ],
        )
        with pytest.raises(ValueError, match="papermc.*`repro serve`"):
            CampaignExecutor(spec).run()
        assert not JobStore(spec.output_dir).manifest_path.exists()

    def test_progress_callback_counts_all_jobs(self, tmp_path):
        spec = tiny_spec(tmp_path)
        seen = []
        CampaignExecutor(
            spec, jobs=1, progress=lambda job, done, total: seen.append(
                (job.job_id, done, total)
            )
        ).run()
        assert [entry[1] for entry in seen] == [1, 2, 3, 4]
        assert all(entry[2] == 4 for entry in seen)
