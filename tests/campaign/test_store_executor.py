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


def write_record(store, job, iterations):
    """Stream ``iterations`` into ``job``'s record and commit it, the way
    the executor does."""
    store.telemetry_dir.mkdir(parents=True, exist_ok=True)
    store.telemetry_path(job.job_id).write_text(
        "".join(
            executor_module.telemetry_line(job, it) + "\n" for it in iterations
        )
    )
    return store.save_job_payload(job, len(iterations))


class TestStore:
    def test_record_round_trip(self, tmp_path):
        spec = tiny_spec(tmp_path, servers=["vanilla"])
        planner = JobPlanner(spec)
        job = planner.plan()[0]
        store = JobStore(spec.output_dir)
        store.write_manifest(spec, planner.plan())
        iterations = executor_module.run_job_chain(
            job, planner.job_config(job), store
        )
        assert store.load_job(job.job_id) is None  # streamed, not committed
        assert store.completed_ids() == set()
        store.save_job_payload(job, len(iterations))
        assert store.load_job(job.job_id) == iterations
        assert store.completed_ids() == {job.job_id}
        lines = store.read_job_telemetry(job.job_id)
        assert [line["iteration"] for line in lines] == [0, 1]
        assert all(line["job_id"] == job.job_id for line in lines)

    def test_one_record_per_job_and_nothing_else(self, tmp_path):
        spec = tiny_spec(tmp_path)
        CampaignExecutor(spec, jobs=2).run()
        store = JobStore(spec.output_dir)
        plan = store.manifest_jobs()
        # No shard directory, no anomaly stream, no atomic-write leftover.
        assert sorted(
            str(path.relative_to(store.root))
            for path in store.root.rglob("*")
            if path.is_file()
        ) == sorted(
            ["campaign_trace.json", "manifest.json"]
            + [f"telemetry/{job.job_id}.jsonl" for job in plan]
        )
        for job in plan:
            record = store.telemetry_path(job.job_id).read_bytes()
            *iteration_lines, commit = record.splitlines()
            assert len(iteration_lines) == spec.iterations
            assert json.loads(commit) == {
                "committed_iterations": spec.iterations,
                "job_id": job.job_id,
            }
            assert record.endswith(b"\n")

    def test_tail_window_grows_past_a_long_line(self, tmp_path):
        """A traced line outgrows the first tail window; ``status`` still
        finds the latest intact line behind a torn tail."""
        spec = tiny_spec(
            tmp_path, servers=["vanilla"], environments=["das5-2core"],
            iterations=1,
        )
        store = JobStore(spec.output_dir)
        plan = JobPlanner(spec).plan()
        store.write_manifest(spec, plan)
        job = plan[0]
        long_line = {
            "iteration": 0,
            "job_id": job.job_id,
            "telemetry": {"trace": {"ticks": ["x" * 200_000]}},
        }
        raw = json.dumps(long_line).encode()
        assert len(raw) > 3 * store._TAIL_BYTES
        store.telemetry_dir.mkdir(parents=True)
        store.telemetry_path(job.job_id).write_bytes(
            raw + b'\n{"iteration": 1, "telemetry": {"tr'
        )
        (entry,) = store.status()["jobs"]
        assert (entry["state"], entry["iterations_done"]) == ("running", 1)
        assert entry["telemetry"] == long_line

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
        # Commit records in reverse order; merge must restore plan order.
        for job in reversed(plan):
            write_record(
                store, job,
                run_server_chain(planner.job_config(job), job.server),
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
        # Byte-identical records on disk, too: the one a pool worker
        # wrote, the one the parent wrote inline, and the one written
        # again from the loaded results.
        rewritten = JobStore(tmp_path / "rewritten")
        for job in JobPlanner(spec_a).plan():
            record = JobStore(spec_a.output_dir).telemetry_path(job.job_id)
            twin = JobStore(spec_b.output_dir).telemetry_path(job.job_id)
            assert record.read_bytes() == twin.read_bytes()
            iterations = JobStore(spec_b.output_dir).load_job(job.job_id)
            again = write_record(rewritten, job, iterations)
            assert again.read_bytes() == record.read_bytes()

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

    def test_resume_skips_completed_records(self, tmp_path, monkeypatch):
        spec = tiny_spec(tmp_path)
        plan = JobPlanner(spec).plan()
        executor = CampaignExecutor(spec, jobs=1)
        executor.run()
        store = JobStore(spec.output_dir)
        assert store.completed_ids() == {job.job_id for job in plan}
        # Drop two records to simulate a kill, then count re-executions.
        killed = [plan[1], plan[3]]
        for job in killed:
            store.telemetry_path(job.job_id).unlink()
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

    def test_a_record_cut_mid_line_is_running_partial_and_rerun(
        self, tmp_path, capsys
    ):
        """Completion is one fact: a record cut inside its second line
        has no commit line, so ``status`` calls the job running, the
        report is partial, and ``resume`` runs it again — to the bytes a
        clean run wrote."""
        from repro.campaign.cli import main

        spec = tiny_spec(tmp_path)
        CampaignExecutor(spec, jobs=1).run()
        store = JobStore(spec.output_dir)
        victim = JobPlanner(spec).plan()[2]
        path = store.telemetry_path(victim.job_id)
        intact = path.read_bytes()
        first_line_end = intact.index(b"\n") + 1
        path.write_bytes(intact[: first_line_end + 100])

        by_id = {entry["job_id"]: entry for entry in store.status()["jobs"]}
        assert by_id[victim.job_id]["state"] == "running"
        assert by_id[victim.job_id]["iterations_done"] == 1
        assert victim.job_id not in store.completed_ids()
        capsys.readouterr()
        assert main(["status", spec.output_dir]) == 0
        assert "3/4 jobs complete, 1 running" in capsys.readouterr().out

        assert main(["report", spec.output_dir]) == 0
        assert "PARTIAL" in (store.report_dir / "report.html").read_text()
        assert "partial campaign" in capsys.readouterr().err

        executed = []
        real_execute = executor_module.execute_job

        def counting_execute(payload):
            executed.append(payload["job"]["job_id"])
            return real_execute(payload)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(executor_module, "execute_job", counting_execute)
            CampaignExecutor(spec, jobs=1).run(resume=True)
        assert executed == [victim.job_id]
        assert path.read_bytes() == intact

    def test_resume_reruns_a_cut_record(self, tmp_path, capsys):
        spec = tiny_spec(tmp_path)
        plan = JobPlanner(spec).plan()
        merged = CampaignExecutor(spec, jobs=1).run()
        store = JobStore(spec.output_dir)
        victim = plan[2]
        path = store.telemetry_path(victim.job_id)
        intact = path.read_bytes()
        for cut in (0, 1, len(intact) // 2, len(intact) - 1):
            path.write_bytes(intact[:cut])
            assert victim.job_id not in store.completed_ids()
            assert store.load_job(victim.job_id) is None
            resumed = CampaignExecutor(spec, jobs=1).run(resume=True)
            assert path.read_bytes() == intact
            assert resumed == merged
        # A cut record is a job still pending, not a damaged one.
        assert "does not parse" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "damage",
        [[b"{}\n"], [b"[]\n"], [b"5\n"], []],
        ids=["empty-iteration", "a-list", "a-number", "no-iterations"],
    )
    def test_resume_reruns_a_committed_record_that_parses_to_no_result(
        self, tmp_path, capsys, damage
    ):
        spec = tiny_spec(
            tmp_path, servers=["vanilla"], environments=["das5-2core"],
            iterations=1,
        )
        merged = CampaignExecutor(spec, jobs=1).run()
        store = JobStore(spec.output_dir)
        (job_id,) = store.completed_ids()
        path = store.telemetry_path(job_id)
        intact = path.read_bytes()
        commit = intact.splitlines(keepends=True)[-1]
        path.write_bytes(b"".join(damage) + commit)
        assert store.completed_ids() == {job_id}  # it ends committed
        capsys.readouterr()
        resumed = CampaignExecutor(spec, jobs=1).run(resume=True)
        assert f"resume: record of job {job_id} does not parse" in (
            capsys.readouterr().out
        )
        assert path.read_bytes() == intact
        assert resumed == merged

    def test_worker_killed_before_the_commit_leaves_a_pending_job(
        self, tmp_path
    ):
        spec = tiny_spec(tmp_path, servers=["vanilla"], iterations=1)
        plan = JobPlanner(spec).plan()
        job = plan[0]
        store = JobStore(spec.output_dir)
        store.write_manifest(spec, plan)
        payload = {
            "spec": spec.to_dict(),
            "job": job.to_dict(),
            "store": str(store.root),
        }

        def die_at_the_commit():
            store_module.JobStore.save_job_payload = (
                lambda self, job, n: os._exit(17)
            )
            executor_module.execute_job(payload)

        worker = multiprocessing.get_context("fork").Process(
            target=die_at_the_commit
        )
        worker.start()
        worker.join(60)
        assert worker.exitcode == 17
        # The chain ran (its iteration line is there) but the record was
        # never committed: the job is not complete.
        assert len(store.read_job_telemetry(job.job_id)) == 1
        assert store.completed_ids() == set()
        assert store.load_job(job.job_id) is None
        # The next attempt truncates the leftover and finishes the job.
        _, record, phases = executor_module.execute_job(payload)
        assert record == str(store.telemetry_path(job.job_id))
        assert set(phases) == {"plan_s", "iterate_s", "externalize_s"}
        assert store.completed_ids() == {job.job_id}
        assert len(store.load_job(job.job_id)) == 1

    def test_resume_refuses_edited_spec(self, tmp_path):
        spec = tiny_spec(tmp_path)
        CampaignExecutor(spec, jobs=1).run()
        JobStore(spec.output_dir).telemetry_path(
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

    def test_foreign_records_rejected(self, tmp_path):
        spec = tiny_spec(tmp_path)
        store = JobStore(spec.output_dir)
        store.telemetry_dir.mkdir(parents=True)
        (store.telemetry_dir / "deadbeef.jsonl").write_text(
            json.dumps({"committed_iterations": 0, "job_id": "deadbeef"})
            + "\n"
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
