"""Tests for windowed variability, steady-state detection, and the bus."""

import numpy as np
import pytest

from repro.telemetry import TelemetryBus, WindowedSeries


class TestWindowedSeries:
    def test_window_summaries(self):
        ws = WindowedSeries(window_size=10)
        for value in range(25):
            ws.update(float(value))
        assert ws.n_windows == 2
        assert ws.n_samples == 25
        first = ws.recent[0]
        assert first.count == 10
        assert first.mean == pytest.approx(4.5)
        assert first.minimum == 0.0 and first.maximum == 9.0

    def test_warmup_then_steady_detected(self):
        rng = np.random.default_rng(1)
        warmup = np.linspace(200.0, 50.0, 400) + rng.normal(0, 2, 400)
        steady = np.full(1600, 50.0) + rng.normal(0, 2, 1600)
        ws = WindowedSeries(window_size=100)
        for value in np.concatenate([warmup, steady]):
            ws.update(value)
        assert ws.steady
        # Boundary lands at window granularity near the true 400-sample
        # warmup; sticky once found.
        assert 300 <= ws.warmup_samples <= 800
        snap = ws.snapshot()
        assert snap["steady"] is True
        assert snap["warmup_samples"] == ws.warmup_samples
        assert snap["last_window"]["cov"] < 0.1

    def test_drifting_series_never_steady(self):
        ws = WindowedSeries(window_size=50, rel_tol=0.05)
        for i in range(2000):
            # every window's mean is 10% above the previous one — always
            # beyond the 5% calm tolerance
            ws.update(1.1 ** (i // 50))
        assert not ws.steady
        assert ws.warmup_samples is None

    def test_flat_series_steady_immediately(self):
        ws = WindowedSeries(window_size=20, stable_windows=3)
        for _ in range(200):
            ws.update(50.0)
        assert ws.steady
        assert ws.steady_since_window == 1
        assert ws.warmup_samples == 20

    def test_recent_windows_bounded(self):
        ws = WindowedSeries(window_size=10, recent_windows=8)
        for value in range(2000):
            ws.update(float(value))
        assert len(ws.recent) == 8
        assert ws.n_windows == 200
        # oldest retained window is the (200-8)th
        assert ws.recent[0].index == 192

    def test_per_window_cov(self):
        rng = np.random.default_rng(5)
        quiet = rng.normal(100.0, 1.0, 100)
        noisy = rng.normal(100.0, 30.0, 100)
        ws = WindowedSeries(window_size=100)
        for value in np.concatenate([quiet, noisy]):
            ws.update(value)
        covs = ws.window_covs()
        assert len(covs) == 2
        assert covs[0] < 0.05 < covs[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedSeries(window_size=1)
        with pytest.raises(ValueError):
            WindowedSeries(rel_tol=0.0)
        with pytest.raises(ValueError):
            WindowedSeries(stable_windows=0)


class TestTelemetryBus:
    def test_publish_routes_to_metric(self):
        bus = TelemetryBus()
        for value in (1.0, 2.0, 3.0):
            bus.publish("tick_ms", value)
        acc = bus.metric("tick_ms")
        assert acc.count == 3
        assert acc.mean == 2.0

    def test_watch_attaches_windowed_view(self):
        bus = TelemetryBus()
        series = bus.watch("tick_ms", window_size=5)
        for value in range(12):
            bus.publish("tick_ms", float(value))
        assert series.n_windows == 2
        assert bus.watch("tick_ms") is series

    def test_conflicting_thresholds_rejected(self):
        bus = TelemetryBus()
        bus.metric("x", thresholds={"hi": 1.0})
        with pytest.raises(ValueError):
            bus.metric("x", thresholds={"hi": 2.0})
