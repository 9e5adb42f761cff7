"""End-to-end ``repro report``: rendered from sidecars, byte-stable."""

import csv
import json
import shutil

import pytest

from repro.campaign import JobStore
from repro.campaign.cli import main
from repro.reporting.spec import PLOT_KINDS
from repro.reporting.svg import anomaly_strip, matrix_plot, warmup_panel


SPEC = {
    "name": "report-tiny",
    "servers": ["vanilla", "papermc"],
    "workloads": ["control"],
    "environments": ["das5-2core"],
    "bot_counts": [4],
    "iterations": 2,
    "duration_s": 1.5,
    "inter_iteration_gap_s": 0.0,
    "seed": 3,
    "trace": True,
    "slow_tick_factor": 0.5,
    "system": {"max_load_1m": 1e9},
    "output": {
        "html": "report.html",
        "pivots": [
            {
                "title": "median p99 tick (ms)",
                "value": "tick_p99_ms",
                "agg": "median",
                "csv": "p99.csv",
            }
        ],
        "plots": [
            {"kind": "matrix", "metric": "tick_p50_ms", "x": "iteration"},
            {"kind": "warmup"},
            {"kind": "anomalies"},
        ],
    },
}


#: The panel each plot kind draws, from the dataset the report reads.
PANELS = {
    "matrix": lambda dataset, plot: matrix_plot(dataset.rows, plot),
    "warmup": lambda dataset, plot: warmup_panel(dataset.jobs),
    "anomalies": lambda dataset, plot: anomaly_strip(dataset.jobs),
}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One tiny traced campaign, run once and shared read-only."""
    tmp = tmp_path_factory.mktemp("report-campaign")
    spec = dict(SPEC, output_dir=str(tmp / "out"))
    spec_path = tmp / "campaign.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["run", str(spec_path), "--quiet"]) == 0
    return tmp


def tree_bytes(root):
    return {
        path.relative_to(root): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def old_bench_files(root):
    """A ``benchmarks/`` tree as the retired wall-time gate left it in a
    checkout: its committed baseline and its appended history."""
    bench = root / "benchmarks"
    (bench / "out").mkdir(parents=True)
    (bench / "BENCH_fig11.json").write_text(
        json.dumps(
            {
                "calibration_s": 0.01,
                "tolerance": 0.2,
                "figures": {"benchmarks/bench_x.py": 1.0},
                "provenance": {"captured_at": "2026-08-08"},
            }
        )
    )
    (bench / "out" / "perf_history.jsonl").write_text(
        json.dumps(
            {
                "kind": "gate",
                "status": "ok",
                "machine_factor": 1.0,
                "captured_at": "2026-08-08T00:00:00",
                "figures": {"benchmarks/bench_x.py": {"ratio": 0.85}},
            }
        )
        + "\n"
    )


class TestReportRendering:
    def test_report_renders_from_sidecars_alone(
        self, campaign, tmp_path, capsys
    ):
        out_dir = campaign / "out"
        # Shards gone: the report must not need them (sidecars only).
        stash = tmp_path / "shards"
        shutil.copytree(out_dir / "jobs", stash)
        shutil.rmtree(out_dir / "jobs")
        try:
            assert main(["report", str(out_dir),
                         "--out", str(tmp_path / "r")]) == 0
        finally:
            shutil.copytree(stash, out_dir / "jobs")
        html = (tmp_path / "r" / "report.html").read_text()
        assert "report-tiny" in html
        assert "median p99 tick (ms)" in html
        assert "<svg" in html
        # Sidecar-less shards make every job "incomplete": partial banner.
        assert "PARTIAL" in html

    def test_report_outputs_and_hygiene_banner(self, campaign, capsys):
        out_dir = campaign / "out"
        assert main(["report", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert "measurement hygiene:" in stdout
        report_dir = out_dir / "report"
        html = (report_dir / "report.html").read_text()
        # Hygiene banner leads the report, sourced from the manifest.
        assert 'class="banner banner-pass"' in html or (
            'class="banner banner-warn"' in html
        )
        assert "PARTIAL" not in html
        assert (report_dir / "p99.csv").read_text().startswith("server,")

    def test_export_and_report_grids_agree_value_for_value(
        self, campaign, tmp_path, capsys
    ):
        # The shard-backed export and the sidecar-backed report print
        # the same string in every shared grid column; only the
        # shard-only throttled_ticks is empty on the report side.
        out_dir = campaign / "out"
        assert main(["report", str(out_dir), "--out",
                     str(tmp_path / "report")]) == 0
        assert main(["export", str(out_dir), "--out",
                     str(tmp_path / "export")]) == 0
        with (tmp_path / "export" / "campaign_grid.csv").open() as handle:
            exported = list(csv.DictReader(handle))
        with (tmp_path / "report" / "report_grid.csv").open() as handle:
            reported = list(csv.DictReader(handle))
        assert len(exported) == len(reported) == 4
        for shard_row, sidecar_row in zip(exported, reported):
            assert list(shard_row) == list(sidecar_row)
            assert sidecar_row.pop("throttled_ticks") == ""
            assert shard_row.pop("throttled_ticks") != ""
            assert shard_row == sidecar_row
        # A shard's statistics are the tap's summaries, dict for dict.
        for it in JobStore(out_dir).merge().iterations:
            assert it.tick_stats() == it.telemetry["tick"]["tick_ms"]
            assert it.response_stats() == it.telemetry["response_ms"]

    @pytest.mark.parametrize(
        "old_bench_cwd", [False, True], ids=["empty-cwd", "old-bench-cwd"]
    )
    def test_double_render_is_byte_identical(
        self, campaign, tmp_path, monkeypatch, old_bench_cwd
    ):
        # Two targets: the manifest's output: section, and a spec file
        # without one (the default report, every fixed panel).  The first
        # render runs in an empty directory, the second in one that may
        # hold a checkout's old benchmarks/ files: the bytes may depend on
        # the campaign directory alone.
        spec = dict(SPEC, output_dir=str(campaign / "out"))
        del spec["output"]
        default_spec = tmp_path / "default-output.json"
        default_spec.write_text(json.dumps(spec))
        for render in ("r1", "r2"):
            cwd = tmp_path / f"cwd-{render}"
            cwd.mkdir()
            if render == "r2" and old_bench_cwd:
                old_bench_files(cwd)
            monkeypatch.chdir(cwd)
            for target in (campaign / "out", default_spec):
                assert main(["report", str(target), "--out",
                             str(tmp_path / render / target.stem)]) == 0
        first = tree_bytes(tmp_path / "r1")
        second = tree_bytes(tmp_path / "r2")
        assert first == second
        assert len(first) == 5  # two reports, two grid CSVs, one pivot CSV

    def test_update_output_never_touches_job_shards(
        self, campaign, capsys
    ):
        out_dir = campaign / "out"
        before = {
            path: (path.stat().st_mtime_ns, path.read_bytes())
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.parts[-2] in ("jobs", "telemetry")
        }
        edited = dict(SPEC, output_dir=str(out_dir))
        edited["output"] = {
            "pivots": [
                {"title": "mean ISR", "value": "isr", "csv": "isr.csv"}
            ],
            "plots": [{"kind": "matrix", "metric": "isr"}],
        }
        spec_path = campaign / "edited.json"
        spec_path.write_text(json.dumps(edited))
        assert main(["report", str(spec_path), "--update-output"]) == 0
        after = {
            path: (path.stat().st_mtime_ns, path.read_bytes())
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.parts[-2] in ("jobs", "telemetry")
        }
        assert before == after
        # The manifest persisted the new output: section...
        manifest = JobStore(out_dir).read_manifest()
        assert manifest["spec"]["output"] == edited["output"]
        # ...and the re-render reflects it.
        html = (out_dir / "report" / "report.html").read_text()
        assert "mean ISR" in html
        assert (out_dir / "report" / "isr.csv").exists()
        # A directory re-render now uses the persisted section too.
        assert main(["report", str(out_dir)]) == 0
        # Restore the original output: section for the tests that follow
        # (the fixture campaign is shared module-wide).
        assert main(
            ["report", str(campaign / "campaign.json"), "--update-output"]
        ) == 0

    @pytest.mark.parametrize("kind", PLOT_KINDS)
    def test_every_plot_kind_renders_its_own_panel(
        self, campaign, tmp_path, kind
    ):
        from html import escape

        from repro.reporting.dataset import load_dataset
        from repro.reporting.html import write_report
        from repro.reporting.spec import OutputSpec

        dataset = load_dataset(JobStore(campaign / "out"))
        output = OutputSpec.from_dict({"plots": [{"kind": kind}]})
        (plot,) = output.plots
        written = write_report(dataset, output, out_dir=tmp_path)
        html = written["html"].read_text()
        body = PANELS[kind](dataset, plot)
        assert f"<section><h2>{escape(plot.label())}</h2>{body}</section>" in (
            html
        )

    def test_partial_campaign_renders_with_banner(
        self, campaign, tmp_path, capsys
    ):
        partial = tmp_path / "partial"
        shutil.copytree(campaign / "out", partial)
        victim = sorted((partial / "jobs").glob("*.json"))[0]
        victim.unlink()
        assert main(["report", str(partial)]) == 0
        captured = capsys.readouterr()
        assert "partial campaign" in captured.err
        html = (partial / "report" / "report.html").read_text()
        assert "PARTIAL" in html
        assert "1 of 2 job(s) complete" in html


class TestManifestHygiene:
    def test_provenance_carries_hygiene_outside_the_digest(
        self, campaign
    ):
        provenance = JobStore(campaign / "out").read_manifest()[
            "provenance"
        ]
        hygiene = provenance["hygiene"]
        assert hygiene["status"] in ("pass", "warn")
        assert hygiene["requests"] == {"max_load_1m": 1e9}
        assert {p["probe"] for p in hygiene["probes"]} >= {
            "governor",
            "load_1m",
        }

    def test_output_section_is_outside_the_measurement_fingerprint(self):
        from repro.tracing.provenance import (
            measurement_config,
            provenance_fingerprint,
        )

        base = dict(SPEC, output_dir="a")
        edited = dict(SPEC, output_dir="b", output={"html": "x.html"})
        assert provenance_fingerprint(measurement_config(base))[
            "fingerprint"
        ] == provenance_fingerprint(measurement_config(edited))[
            "fingerprint"
        ]

    def test_resume_ignores_output_edits(self):
        from repro.campaign.executor import _ensure_spec_unchanged

        recorded = dict(SPEC, output_dir="x")
        current = dict(recorded, output={"html": "other.html"})
        _ensure_spec_unchanged(recorded, current, "x")  # must not raise
        with pytest.raises(ValueError, match="spec changed"):
            _ensure_spec_unchanged(
                recorded, dict(recorded, duration_s=99.0), "x"
            )


class TestOutputValidation:
    def test_unknown_metric_rejected_at_spec_load(self):
        from repro.campaign.spec import CampaignSpec

        bad = dict(SPEC, output={"pivots": [{"value": "nope"}]})
        with pytest.raises(ValueError, match="unknown metric"):
            CampaignSpec.from_dict(bad)

    def test_retired_plot_kind_rejected(self):
        from repro.reporting.spec import OutputSpec

        with pytest.raises(ValueError, match="unknown plot kind"):
            OutputSpec.from_dict({"plots": [{"kind": "trajectory"}]})

    def test_old_manifest_naming_a_retired_plot_kind_fails_closed(
        self, campaign, tmp_path, capsys
    ):
        old = tmp_path / "old"
        shutil.copytree(campaign / "out", old)
        manifest_path = old / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"]["output"]["plots"].append({"kind": "trajectory"})
        manifest_path.write_text(json.dumps(manifest))
        assert main(["report", str(old)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown plot kind 'trajectory'" in err
        assert "Traceback" not in err
        # The migration: re-render from a spec whose output: is current.
        spec_path = tmp_path / "migrated.json"
        spec_path.write_text(json.dumps(dict(SPEC, output_dir=str(old))))
        assert main(["report", str(spec_path), "--update-output"]) == 0
        assert main(["report", str(old)]) == 0

    def test_unknown_output_key_rejected(self):
        from repro.reporting.spec import validate_output

        with pytest.raises(ValueError, match="unknown keys"):
            validate_output({"htlm": "typo.html"})

    def test_bad_system_section_rejected(self):
        from repro.campaign.spec import CampaignSpec

        with pytest.raises(ValueError, match="must be a boolean"):
            CampaignSpec.from_dict(dict(SPEC, system={"disable_smt": "yes"}))
        with pytest.raises(ValueError, match="CPU indices"):
            CampaignSpec.from_dict(
                dict(SPEC, system={"isolate_cpus": ["a"]})
            )

    def test_empty_output_section_means_default_report(self):
        from repro.reporting.spec import OutputSpec, default_output

        parsed = OutputSpec.from_dict({})
        defaults = default_output()
        assert [p.label() for p in parsed.pivots] == [
            p.label() for p in defaults.pivots
        ]
        assert [p.label() for p in parsed.plots] == [
            p.label() for p in defaults.plots
        ]

    def test_default_report_draws_every_plot_kind(self):
        from repro.reporting.spec import default_output

        kinds = [plot.kind for plot in default_output().plots]
        assert set(kinds) == set(PLOT_KINDS) == set(PANELS)
