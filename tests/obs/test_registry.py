"""The obs snapshot: export validation and render determinism."""

import json

import pytest

from repro.obs import (
    ObsSnapshot,
    render_json,
    render_prometheus,
    telemetry_obs_snapshot,
)
from repro.telemetry.catalog import EXPOSITION


def sample_telemetry(wire: bool = True, trace: bool = True) -> dict:
    telemetry = {
        "tick": {
            "ticks": 120,
            "isr": 0.25,
            "overloaded_fraction": 0.1,
            "entities_last": 40,
            "entities_peak": 55,
            "breakdown_us": {"redstone": 900.0, "fluids": 300.0},
            "tick_ms": {
                "mean": 12.0,
                "p50": 11.0,
                "p95": 20.0,
                "p99": 30.0,
                "max": 44.0,
                "cov": 0.4,
            },
        },
        "response_ms": {"count": 9, "p50": 31.0, "p99": 80.0},
    }
    if wire:
        telemetry["wire"] = {
            "wire_bytes_in": {"total": 1000.0},
            "wire_bytes_out": {"total": 5000.0},
            "wire_flush_us": {"count": 12, "p99": 250.0},
            "wire_connects": {"count": 3},
        }
    if trace:
        telemetry["trace"] = {
            "enabled": True,
            "slow_ticks": 2,
            "anomaly_count": 1,
        }
    return telemetry


class TestExpositionTable:
    def test_every_entry_has_a_type_and_help(self):
        for name, metric in EXPOSITION.items():
            assert metric.kind in {"counter", "gauge"}, name
            assert metric.help, name

    def test_naming_convention(self):
        for name, metric in EXPOSITION.items():
            assert name.startswith("repro_"), name
            if metric.kind == "counter":
                assert name.endswith(("_total", "_observed")), name


class TestExportValidation:
    def test_unregistered_name_rejected(self):
        snap = ObsSnapshot()
        with pytest.raises(ValueError, match="not in the metric catalog"):
            snap.export("repro_mystery_total", 1)

    def test_cell_label_discipline(self):
        snap = ObsSnapshot()
        with pytest.raises(ValueError, match="takes no cell label"):
            snap.export("repro_jobs_total", 2, cell="a")
        snap.export("repro_isr", 0.5, cell="a")
        with pytest.raises(ValueError, match="mixes label sets"):
            snap.export("repro_isr", 0.5)
        snap.export("repro_phase_us_total", 2.0, label="fluids", cell="a")
        snap.export("repro_phase_us_total", 3.0, label="fluids", cell="b")
        assert snap.values["repro_phase_us_total"] == {
            "a": {"fluids": 2.0},
            "b": {"fluids": 3.0},
        }

    def test_label_discipline(self):
        snap = ObsSnapshot()
        with pytest.raises(ValueError, match="needs a 'phase' label"):
            snap.export("repro_phase_us_total", 1.0)
        with pytest.raises(ValueError, match="takes no label"):
            snap.export("repro_ticks_total", 1, label="oops")
        snap.export("repro_phase_us_total", 2.0, label="redstone")
        snap.export("repro_phase_us_total", 3.0, label="fluids")
        assert snap.values["repro_phase_us_total"] == {
            "redstone": 2.0,
            "fluids": 3.0,
        }


class TestPrometheusRendering:
    def test_stable_sorted_and_timestamp_free(self):
        snap = telemetry_obs_snapshot(sample_telemetry())
        body = render_prometheus(snap)
        samples = [
            line
            for line in body.splitlines()
            if line and not line.startswith("#")
        ]
        names = [line.split("{")[0].split(" ")[0] for line in samples]
        assert names == sorted(names)
        # One token after the value on every sample line — i.e. no
        # trailing Prometheus timestamp field.
        for line in samples:
            assert len(line.rsplit("} ", 1)[-1].split()) <= 2
        assert body == render_prometheus(
            telemetry_obs_snapshot(sample_telemetry())
        )

    def test_help_type_and_label_shape(self):
        snap = telemetry_obs_snapshot(sample_telemetry())
        body = render_prometheus(snap)
        assert "# HELP repro_ticks_total ticks simulated so far" in body
        assert "# TYPE repro_ticks_total counter" in body
        assert 'repro_phase_us_total{phase="fluids"} 300' in body
        assert 'repro_phase_us_total{phase="redstone"} 900' in body
        assert "repro_ticks_total 120" in body  # integral stays integral

    def test_cell_label_comes_first(self):
        snap = ObsSnapshot()
        snap.export_telemetry(sample_telemetry(), cell="vanilla|farm")
        snap.export("repro_jobs_total", 1)
        body = render_prometheus(snap)
        assert 'repro_ticks_total{cell="vanilla|farm"} 120\n' in body
        assert (
            'repro_phase_us_total{cell="vanilla|farm",phase="fluids"} 300\n'
        ) in body
        assert "\nrepro_jobs_total 1\n" in body

    def test_label_values_escaped(self):
        snap = ObsSnapshot()
        snap.export("repro_phase_us_total", 1.0, label='we"ird\\name')
        body = render_prometheus(snap)
        assert 'phase="we\\"ird\\\\name"' in body


class TestJsonRendering:
    def test_schema_meta_and_key_order(self):
        snap = telemetry_obs_snapshot(
            sample_telemetry(), meta={"cell": "vanilla/das5"}
        )
        doc = json.loads(render_json(snap))
        assert doc["schema"] == "repro-obs/v1"
        assert doc["meta"] == {"cell": "vanilla/das5"}
        assert doc["metrics"]["repro_ticks_total"] == 120
        assert render_json(snap) == render_json(snap)


class TestTelemetrySnapshot:
    def test_wire_and_trace_sections_are_optional(self):
        snap = telemetry_obs_snapshot(sample_telemetry(wire=False, trace=False))
        assert "repro_wire_bytes_out_total" not in snap.values
        assert "repro_slow_ticks_total" not in snap.values
        full = telemetry_obs_snapshot(sample_telemetry())
        assert full.values["repro_wire_bytes_out_total"] == 5000.0
        assert full.values["repro_slow_ticks_total"] == 2.0
        assert full.values["repro_trace_anomalies_total"] == 1.0

    def test_disabled_trace_not_exported(self):
        telemetry = sample_telemetry()
        telemetry["trace"] = {"enabled": False, "slow_ticks": 9}
        snap = telemetry_obs_snapshot(telemetry)
        assert "repro_slow_ticks_total" not in snap.values
