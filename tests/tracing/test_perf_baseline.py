"""Perf-baseline gate: compare semantics, machine calibration, and the
CLI exit codes CI keys off."""

import json

import pytest

from repro.tracing.perf_baseline import (
    DEFAULT_TOLERANCE,
    compare,
    main,
    measure_calibration,
    write_baseline,
)

BASELINE = {
    "calibration_s": 0.100,
    "tolerance": 0.20,
    "figures": {
        "benchmarks/bench_fig11.py": 10.0,
        "benchmarks/bench_fig09.py": 4.0,
    },
}


class TestCompare:
    def test_within_budget_is_ok(self):
        rows, regressions = compare(
            {"benchmarks/bench_fig11.py": 11.9}, BASELINE, 0.100
        )
        assert regressions == []
        by_name = {row["figure"]: row for row in rows}
        assert by_name["benchmarks/bench_fig11.py"]["status"] == "ok"
        # The other baseline figure was not in this run: skipped, never
        # failed, so partial local runs stay gateable.
        assert by_name["benchmarks/bench_fig09.py"]["status"] == "missing"

    def test_regression_past_tolerance(self):
        rows, regressions = compare(
            {"benchmarks/bench_fig11.py": 12.1}, BASELINE, 0.100
        )
        assert len(regressions) == 1
        assert regressions[0]["figure"] == "benchmarks/bench_fig11.py"
        assert regressions[0]["status"] == "REGRESSION"

    def test_machine_factor_scales_the_budget(self):
        # Twice-as-slow machine: budget doubles, 19s still fits 10s base.
        _, regressions = compare(
            {"benchmarks/bench_fig11.py": 19.0}, BASELINE, 0.200
        )
        assert regressions == []
        # Twice-as-fast machine: the same 19s is a blatant regression.
        _, regressions = compare(
            {"benchmarks/bench_fig11.py": 19.0}, BASELINE, 0.050
        )
        assert len(regressions) == 1

    def test_new_figures_never_fail(self):
        rows, regressions = compare(
            {"benchmarks/bench_new.py": 99.0}, BASELINE, 0.100
        )
        assert regressions == []
        assert any(row["status"] == "new" for row in rows)

    def test_tolerance_override_wins(self):
        _, regressions = compare(
            {"benchmarks/bench_fig11.py": 11.9},
            BASELINE,
            0.100,
            tolerance=0.0,
        )
        assert len(regressions) == 1


class TestBaselineFile:
    def test_write_baseline_shape(self, tmp_path):
        path = write_baseline(
            tmp_path / "BENCH_fig11.json",
            {"benchmarks/bench_b.py": 2.3456, "benchmarks/bench_a.py": 1.0},
            calibration_s=0.123,
        )
        payload = json.loads(path.read_text())
        assert payload["calibration_s"] == 0.123
        assert payload["tolerance"] == DEFAULT_TOLERANCE
        assert payload["figures"]["benchmarks/bench_b.py"] == 2.346
        assert payload["provenance"]["fingerprint"]
        assert payload["provenance"]["captured_at"]

    def test_calibration_is_positive_and_repeatable(self):
        # Positive on every call; how close two calls land is the host's
        # business (a 20x swing was measured on this guest, ROADMAP), so
        # tier-1 asserts nothing about their ratio.
        assert measure_calibration() > 0
        assert measure_calibration() > 0


class TestMain:
    #: What ``main`` measures here.  Its exit codes are under test, not the
    #: host: live, a hiccup between a test's calibration and ``main``'s own
    #: (a 20x swing, ROADMAP) rescales every budget and flips the verdict.
    CAL = 0.002

    @pytest.fixture(autouse=True)
    def _pinned_calibration(self, monkeypatch):
        monkeypatch.setattr(
            "repro.tracing.perf_baseline.measure_calibration",
            lambda: self.CAL,
        )

    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_gate_ok_and_regression_exit_codes(self, tmp_path, capsys):
        cal = self.CAL
        baseline = self._write(
            tmp_path / "base.json",
            {
                "calibration_s": cal,
                "tolerance": 0.20,
                "figures": {"benchmarks/bench_x.py": 10.0},
            },
        )
        ok = self._write(
            tmp_path / "ok.json", {"benchmarks/bench_x.py": 10.0}
        )
        assert main(["--runtimes", ok, "--baseline", baseline]) == 0
        assert "perf trajectory OK" in capsys.readouterr().out
        bad = self._write(
            tmp_path / "bad.json", {"benchmarks/bench_x.py": 100.0}
        )
        assert main(["--runtimes", bad, "--baseline", baseline]) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def test_missing_inputs_exit_2(self, tmp_path):
        assert (
            main(["--runtimes", str(tmp_path / "nope.json")]) == 2
        )
        runtimes = self._write(tmp_path / "run.json", {"f": 1.0})
        assert (
            main(
                [
                    "--runtimes",
                    runtimes,
                    "--baseline",
                    str(tmp_path / "nobase.json"),
                ]
            )
            == 2
        )

    def test_every_run_appends_to_the_history(self, tmp_path, capsys):
        cal = self.CAL
        baseline = self._write(
            tmp_path / "base.json",
            {
                "calibration_s": cal,
                "tolerance": 0.20,
                "figures": {"benchmarks/bench_x.py": 10.0},
            },
        )
        history = tmp_path / "history.jsonl"
        ok = self._write(
            tmp_path / "ok.json", {"benchmarks/bench_x.py": 10.0}
        )
        assert main(
            ["--runtimes", ok, "--baseline", baseline,
             "--history", str(history)]
        ) == 0
        bad = self._write(
            tmp_path / "bad.json", {"benchmarks/bench_x.py": 100.0}
        )
        assert main(
            ["--runtimes", bad, "--baseline", baseline,
             "--history", str(history)]
        ) == 1
        assert main(
            ["--runtimes", ok, "--baseline", str(tmp_path / "new.json"),
             "--update", "--history", str(history)]
        ) == 0
        entries = [
            json.loads(line)
            for line in history.read_text().splitlines()
        ]
        assert [e["status"] for e in entries] == [
            "ok",
            "regression",
            "updated",
        ]
        gate = entries[0]["figures"]["benchmarks/bench_x.py"]
        assert gate["status"] == "ok"
        assert 0.0 < gate["ratio"] <= 1.0
        assert gate["delta_s"] == 0.0
        failed = entries[1]["figures"]["benchmarks/bench_x.py"]
        assert failed["status"] == "REGRESSION"
        assert failed["ratio"] > 1.0
        assert entries[0]["machine_factor"] > 0
        # Update entries record seconds but no budget ratio.
        assert (
            entries[2]["figures"]["benchmarks/bench_x.py"]["ratio"] is None
        )

    def test_default_history_lands_next_to_runtimes(self, tmp_path):
        cal = self.CAL
        baseline = self._write(
            tmp_path / "base.json",
            {"calibration_s": cal, "figures": {"f": 1.0}},
        )
        out = tmp_path / "out"
        out.mkdir()
        runtimes = self._write(out / "bench_runtimes.json", {"f": 1.0})
        assert main(["--runtimes", runtimes, "--baseline", baseline]) == 0
        assert (out / "perf_history.jsonl").exists()
        # --history '' opts out.
        assert main(
            ["--runtimes", runtimes, "--baseline", baseline,
             "--history", ""]
        ) == 0
        assert len(
            (out / "perf_history.jsonl").read_text().splitlines()
        ) == 1

    def test_update_writes_the_baseline(self, tmp_path, monkeypatch):
        runtimes = self._write(
            tmp_path / "run.json", {"benchmarks/bench_x.py": 3.0}
        )
        baseline = tmp_path / "BENCH_fig11.json"
        assert (
            main(
                [
                    "--runtimes",
                    runtimes,
                    "--baseline",
                    str(baseline),
                    "--update",
                ]
            )
            == 0
        )
        payload = json.loads(baseline.read_text())
        assert payload["figures"] == {"benchmarks/bench_x.py": 3.0}
        # Env-var form (what a CI "update" job would set).
        monkeypatch.setenv("METERSTICK_UPDATE_BASELINE", "1")
        assert (
            main(["--runtimes", runtimes, "--baseline", str(baseline)]) == 0
        )
        assert baseline.exists()

    def test_gate_without_update_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("METERSTICK_UPDATE_BASELINE", raising=False)
        cal = self.CAL
        baseline = self._write(
            tmp_path / "base.json",
            {"calibration_s": cal, "figures": {"benchmarks/bench_x.py": 5.0}},
        )
        runtimes = self._write(
            tmp_path / "run.json", {"benchmarks/bench_x.py": 5.0}
        )
        assert main(["--runtimes", runtimes, "--baseline", baseline]) == 0
