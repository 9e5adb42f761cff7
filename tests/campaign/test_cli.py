"""CLI round-trip: run → status → kill → resume → export on a tmp dir."""

import json

import pytest

from repro.campaign import JobStore
from repro.campaign.cli import main


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "name": "cli-tiny",
        "servers": ["vanilla"],
        "workloads": ["control", "players"],
        "environments": ["das5-2core"],
        "bot_counts": [4],
        "iterations": 1,
        "duration_s": 1.5,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(spec))
    return path


class TestCli:
    def test_run_status_export_round_trip(
        self, spec_file, tmp_path, capsys
    ):
        assert main(["run", str(spec_file), "--quiet"]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "manifest.json").exists()
        # One record per job, and nothing else per job on disk.
        assert len(list((out_dir / "telemetry").glob("*.jsonl"))) == 2
        assert not (out_dir / "jobs").exists()

        assert main(["status", str(out_dir)]) == 0
        status_out = capsys.readouterr().out
        assert "2/2 jobs complete" in status_out

        assert main(["export", str(out_dir)]) == 0
        export_dir = out_dir / "export"
        summary = (export_dir / "summary.csv").read_text()
        assert summary.count("\n") == 3  # header + 2 iterations
        assert "behavior" in summary.splitlines()[0]
        assert (export_dir / "results.json").exists()
        # The per-iteration grid is the report's (report_grid.csv).
        assert not (export_dir / "campaign_grid.csv").exists()
        # Cells sharing a server must not clobber each other's series:
        # the varying axis (workload) becomes a subdirectory.
        assert (export_dir / "vanilla" / "control"
                / "iter0_ticks.csv").exists()
        assert (export_dir / "vanilla" / "players"
                / "iter0_ticks.csv").exists()

    def test_rerun_refused_then_resume_completes(
        self, spec_file, tmp_path, capsys
    ):
        assert main(["run", str(spec_file), "--quiet"]) == 0
        assert main(["run", str(spec_file), "--quiet"]) == 2
        assert "resume" in capsys.readouterr().err

        store = JobStore(tmp_path / "out")
        record = store.telemetry_path(sorted(store.completed_ids())[0])
        record.unlink()
        assert main(["resume", str(spec_file), "--quiet"]) == 0
        assert len(store.completed_ids()) == 2

        # Resuming a finished campaign is a no-op, not an error.
        assert main(["resume", str(tmp_path / "out"), "--quiet"]) == 0

    def test_flood_workload_runs_end_to_end(self, tmp_path):
        # `repro run` must execute the Flood workload like any other
        # cell, and its recorded tick distribution must be dominated by
        # the Fluids bucket (the workload's defining property).
        spec = {
            "name": "cli-flood",
            "servers": ["vanilla"],
            "workloads": ["flood"],
            "environments": ["das5-2core"],
            "iterations": 1,
            "duration_s": 40.0,
            "seed": 3,
            "output_dir": str(tmp_path / "flood-out"),
        }
        path = tmp_path / "flood.json"
        path.write_text(json.dumps(spec))
        assert main(["run", str(path), "--quiet"]) == 0
        store = JobStore(tmp_path / "flood-out")
        (job_id,) = store.completed_ids()
        (iteration,) = store.load_job(job_id)
        assert not iteration.crashed
        active = {
            bucket: share
            for bucket, share in iteration.tick_distribution.items()
            if not bucket.startswith("Wait")
        }
        assert max(active, key=active.get) == "Fluids", active

    def test_status_on_missing_target_errors(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["status", "export", "report"])
    def test_verbs_on_dir_without_manifest_error_cleanly(
        self, verb, tmp_path, capsys
    ):
        # A directory that exists but was never a campaign output dir:
        # one clear error naming the missing manifest, nonzero exit.
        empty = tmp_path / "not-a-campaign"
        empty.mkdir()
        assert main([verb, str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("error:") == 1
        assert "manifest" in captured.err
        assert str(empty) in captured.err

    def test_export_without_completed_jobs_errors(
        self, spec_file, tmp_path, capsys
    ):
        spec = json.loads(spec_file.read_text())
        store = JobStore(spec["output_dir"])
        from repro.campaign import CampaignSpec, JobPlanner

        campaign = CampaignSpec.from_dict(spec)
        store.write_manifest(campaign, JobPlanner(campaign).plan())
        assert main(["export", str(tmp_path / "out")]) == 1
        assert "no completed jobs" in capsys.readouterr().err

    def test_boxplot_export(self, spec_file, tmp_path, capsys):
        assert main(["run", str(spec_file), "--quiet"]) == 0
        assert main(["export", str(tmp_path / "out"), "--boxplot"]) == 0
        assert "Tick durations per server" in capsys.readouterr().out


@pytest.fixture()
def finished_control(tmp_path):
    """A finished one-iteration ``control`` campaign's output directory."""
    spec = {
        "name": "cli-control",
        "servers": ["vanilla"],
        "workloads": ["control"],
        "environments": ["das5-2core"],
        "iterations": 1,
        "duration_s": 1.5,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "control.json"
    path.write_text(json.dumps(spec))
    assert main(["run", str(path), "--quiet"]) == 0
    return tmp_path / "out"


@pytest.mark.parametrize(
    "damage",
    [
        lambda lines: [lines[0][:100] + b"\n", lines[-1]],
        lambda lines: [b"{}\n", lines[-1]],
        lambda lines: [lines[-1]],
    ],
    ids=["torn-iteration", "empty-iteration", "no-iterations"],
)
def test_export_of_a_damaged_record_names_it(finished_control, capsys, damage):
    """A committed record whose iteration lines do not add up is damaged:
    loading it names the file, and ``export`` says so in one line."""
    store = JobStore(finished_control)
    (job_id,) = store.completed_ids()
    record = store.telemetry_path(job_id)
    lines = record.read_bytes().splitlines(keepends=True)
    record.write_bytes(b"".join(damage(lines)))
    with pytest.raises(ValueError, match=str(record)):
        store.load_job(job_id)
    capsys.readouterr()
    assert main(["export", str(finished_control)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("error:") == 1
    assert str(record) in err


@pytest.mark.parametrize("verb", ["export", "resume"])
def test_a_shard_layout_directory_is_refused_by_name(
    finished_control, capsys, verb
):
    """A directory written before job records (one ``jobs/*.json`` shard
    per job) is refused with one named error, not a traceback."""
    (finished_control / "jobs").mkdir()
    (finished_control / "jobs" / "deadbeef.json").write_text("{}")
    capsys.readouterr()
    assert main([verb, str(finished_control)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert "holds job shards (jobs/*.json)" in err


@pytest.mark.parametrize(
    "field", ["retain_raw", "trace_sample_every", "wire_batch_flush"]
)
class TestRemovedKnobs:
    """A spec or manifest naming a knob that no longer exists is refused
    with the field's name, never run with it silently dropped."""

    def test_spec_naming_it_is_refused(self, spec_file, capsys, field):
        spec = json.loads(spec_file.read_text())
        spec[field] = 1
        spec_file.write_text(json.dumps(spec))
        assert main(["run", str(spec_file), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"error: unknown campaign spec fields ['{field}']" in err

    def test_manifest_naming_it_is_refused(
        self, finished_control, capsys, field
    ):
        store = JobStore(finished_control)
        manifest = json.loads(store.manifest_path.read_text())
        manifest["spec"][field] = 1
        store.manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        for verb in ("resume", "status"):
            assert main([verb, str(finished_control)]) == 2
            err = capsys.readouterr().err
            assert f"error: unknown campaign spec fields ['{field}']" in err


def test_each_watch_refresh_is_the_one_shot_status_frame(
    finished_control, capsys
):
    from repro.campaign.cli import _load_spec, _watch_status

    spec = _load_spec(str(finished_control))
    _watch_status(spec, JobStore(spec.output_dir), 0.0, max_refreshes=1)
    watched = capsys.readouterr().out
    assert main(["status", str(finished_control)]) == 0
    assert watched == "\x1b[2J\x1b[H" + capsys.readouterr().out
