"""SVG panel renderers over synthetic data (no campaign required)."""

from repro.reporting.dataset import JobView
from repro.reporting.spec import PlotSpec
from repro.reporting.svg import anomaly_strip, matrix_plot, warmup_panel


def make_job(job_id="aaaa1111", windows=None, anomalies=None):
    return JobView(
        job={
            "job_id": job_id,
            "index": 0,
            "server": "vanilla",
            "workload": "control",
            "environment": "das5-2core",
            "scale": 1.0,
            "n_bots": 25,
            "behavior": "bounded-random",
        },
        done=True,
        expected_iterations=1,
        iterations_done=1 if windows is not None else 0,
        latest_windows=windows or {},
        anomalies=anomalies or [],
    )


def matrix_rows():
    rows = []
    for server in ("vanilla", "papermc"):
        for workload in ("control", "farm"):
            for iteration in range(3):
                rows.append(
                    {
                        "server": server,
                        "workload": workload,
                        "iteration": iteration,
                        "tick_p99_ms": 10.0 + iteration,
                    }
                )
    return rows


class TestMatrixPlot:
    def test_facets_series_and_legend(self):
        svg = matrix_plot(matrix_rows(), PlotSpec())
        assert svg.count("facet-title") == 2  # control + farm panels
        assert "workload = control" in svg
        assert 'class="legend"' in svg
        assert "papermc" in svg and "vanilla" in svg
        assert "series-line series-1" in svg
        assert "series-line series-2" in svg
        assert "<title>" in svg  # native tooltips on markers

    def test_render_is_deterministic(self):
        spec = PlotSpec(metric="tick_p99_ms")
        assert matrix_plot(matrix_rows(), spec) == matrix_plot(
            matrix_rows(), spec
        )

    def test_series_beyond_the_slot_cap_fold_with_a_note(self):
        rows = [
            {"server": f"s{i:02d}", "workload": "w", "iteration": 0,
             "tick_p99_ms": 1.0}
            for i in range(10)
        ]
        svg = matrix_plot(rows, PlotSpec())
        assert "2 series beyond the first 8 are not drawn" in svg
        assert "series-9" not in svg

    def test_no_data_renders_an_empty_note(self):
        assert "no data" in matrix_plot([], PlotSpec())


class TestWarmupPanel:
    def test_steady_job_gets_marker_and_annotation(self):
        job = make_job(
            windows={
                "recent_covs": [0.4, 0.2, 0.05, 0.04],
                "steady": True,
                "steady_since_window": 2,
                "n_windows": 4,
                "warmup_samples": 240,
            }
        )
        svg = warmup_panel([job])
        assert "steady-marker" in svg
        assert "steady @ w2 (240 warmup ticks)" in svg
        assert "vanilla control" in svg

    def test_warming_job_says_so(self):
        job = make_job(
            windows={
                "recent_covs": [0.5, 0.4],
                "steady": False,
                "steady_since_window": None,
                "n_windows": 2,
            }
        )
        svg = warmup_panel([job])
        assert "still warming up" in svg
        assert "steady-marker" not in svg

    def test_no_windows_renders_empty_note(self):
        assert "no windowed telemetry" in warmup_panel([make_job()])


class TestAnomalyStrip:
    def anomaly(self, tick, bucket):
        return {
            "iteration": 0,
            "tick": tick,
            "duration_us": 250000,
            "factor": 5.0,
            "breakdown_us": {bucket: 200000.0, "Other": 1000.0},
        }

    def test_autosave_dominated_ticks_use_second_slot(self):
        job = make_job(
            anomalies=[
                self.anomaly(10, "Entities"),
                self.anomaly(50, "Autosave"),
                self.anomaly(70, "Chunk Load"),
            ]
        )
        svg = anomaly_strip([job])
        assert svg.count("series-bgfill-1") == 1  # the Entities tick
        assert svg.count("series-bgfill-2") == 2  # autosave + chunk IO
        assert "autosave/chunk-IO dominated" in svg
        assert "5.0x budget" in svg

    def test_no_anomalies_renders_empty_note(self):
        assert "no slow-tick anomalies" in anomaly_strip([make_job()])

