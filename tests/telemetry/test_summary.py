"""Tests for the series summaries, the warmup→steady change point, the
bus of raw series, and reading live series from another thread."""

import math
import sys
from array import array
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.net.server import wire_metrics_snapshot
from repro.telemetry import ServerTelemetry, TelemetryBus, summarize, windows
from repro.telemetry.catalog import WIRE_FLUSH_US
from repro.telemetry.summary import QUANTILES, percentiles, total

N = 20_000


def _distributions(seed: int = 7) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "uniform": rng.uniform(0.0, 100.0, N),
        "lognormal": rng.lognormal(3.0, 0.8, N),
        "bimodal": np.concatenate(
            [rng.normal(10.0, 1.0, N // 2), rng.normal(60.0, 5.0, N // 2)]
        ),
    }


def _streams() -> dict[str, list]:
    rng = np.random.default_rng(11)
    return {
        "continuous": rng.lognormal(0.0, 2.0, 1500).tolist(),
        "few_values": rng.choice([0.0, -0.0, 1.5, 2.25, 7.0], 600).tolist(),
        "integers": [int(v) for v in rng.integers(0, 200, 900)],
        "one_value": [3.5] * 300,
    }


class TestSummarize:
    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "bimodal"])
    @pytest.mark.parametrize("q", QUANTILES)
    def test_quantiles_are_exact(self, dist, q):
        # No tolerance, not even in the bimodal median's empty gap.
        data = _distributions()[dist]
        expected = float(np.percentile(data, q, method="linear"))
        assert summarize(data)[f"p{q}"] == expected

    def test_extremes_are_exact(self):
        data = _distributions()["lognormal"]
        snap = summarize(data)
        assert snap["min"] == data.min()
        assert snap["max"] == data.max()

    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "bimodal"])
    def test_moments_match_numpy(self, dist):
        data = _distributions()[dist]
        snap = summarize(data)
        assert snap["mean"] == pytest.approx(float(data.mean()), rel=1e-12)
        assert snap["std"] == pytest.approx(float(data.std(ddof=0)), rel=1e-9)
        assert snap["cov"] == pytest.approx(
            float(data.std(ddof=0) / data.mean()), rel=1e-9
        )

    @pytest.mark.parametrize(
        "stream", ["continuous", "few_values", "integers", "one_value"]
    )
    def test_any_container_reads_alike(self, stream):
        # A series reaches summarize as a list (results), an array('d')
        # grown one publish at a time (bus, tap) or an ndarray (windows).
        data = _streams()[stream]
        bus = TelemetryBus()
        for value in data:
            bus.publish("x", value)
        thresholds = {"low": 1.0, "high": 50.0}
        expected = repr(summarize(data, thresholds))
        for series in (tuple(data), array("d", data), np.asarray(data),
                       bus.series["x"]):
            assert repr(summarize(series, thresholds)) == expected

    def test_total_is_the_naive_sum(self):
        assert total([]) == 0.0
        values = [0.1] * 10
        running = 0.0
        for value in values:
            running += value
        assert total(values) == running != math.fsum(values)

    def test_quantiles_are_linear_percentiles(self):
        values = np.random.default_rng(3).lognormal(3.0, 0.8, 757).tolist()
        snap = summarize(values)
        expected = np.percentile(values, QUANTILES, method="linear")
        assert [snap[f"p{q}"] for q in QUANTILES] == expected.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 101, 1193])
    def test_percentiles_match_numpy_at_every_size(self, n):
        rng = np.random.default_rng(n)
        for values in (
            rng.lognormal(3.0, 0.8, n),
            rng.integers(0, 4, n).astype(float),  # ties
        ):
            expected = np.percentile(values, QUANTILES, method="linear")
            assert percentiles(values) == expected.tolist()

    def test_mean_is_the_naive_running_sum(self):
        values = [0.1] * 10
        total = 0.0
        for value in values:
            total += value
        assert summarize(values)["mean"] == total / len(values)
        assert total != math.fsum(values)  # rounding the naive sum keeps

    def test_moments_extremes_and_exceedance(self):
        values = [10.0, 20.0, 60.0, 120.0]
        snap = summarize(values, {"hi": 50.0, "top": 120.0})
        assert snap["count"] == 4
        assert snap["std"] == pytest.approx(np.std(values), rel=1e-15)
        assert snap["cov"] == snap["std"] / 52.5
        assert (snap["min"], snap["max"]) == (10.0, 120.0)
        assert snap["frac_over_hi"] == 0.5
        assert snap["frac_over_top"] == 0.0  # strictly above

    def test_a_constant_series_has_no_spread(self):
        snap = summarize([1.443] * 3)
        assert snap["std"] == snap["cov"] == 0.0
        assert snap["p99"] == 1.443

    def test_empty_series_reads_zero_with_every_key(self):
        snap = summarize([], {"budget": 50.0})
        assert snap == summarize([1.0], {"budget": 50.0}) | {
            key: 0 for key in snap
        }
        assert snap["count"] == 0 and snap["frac_over_budget"] == 0.0


class TestWindows:
    def test_window_summaries(self):
        snap = windows([float(v) for v in range(25)], window_size=10)
        assert snap["n_windows"] == 2
        assert snap["n_samples"] == 25
        last = snap["last_window"]
        assert (last["index"], last["start"], last["count"]) == (1, 10, 10)
        assert last["mean"] == 14.5
        assert last["min"] == 10.0 and last["max"] == 19.0

    def test_warmup_then_steady_detected(self):
        rng = np.random.default_rng(1)
        warmup = np.linspace(200.0, 50.0, 400) + rng.normal(0, 2, 400)
        steady = np.full(1600, 50.0) + rng.normal(0, 2, 1600)
        snap = windows(np.concatenate([warmup, steady]).tolist())
        assert snap["steady"] is True
        # Boundary lands at window granularity near the true 400-sample
        # warmup.
        assert 300 <= snap["warmup_samples"] <= 800
        assert snap["warmup_samples"] == 100 * snap["steady_since_window"]
        assert snap["last_window"]["cov"] < 0.1

    def test_drifting_series_never_steady(self):
        # every window's mean is 10% above the previous one — always
        # beyond the 5% calm tolerance
        values = [1.1 ** (i // 50) for i in range(2000)]
        snap = windows(values, window_size=50, rel_tol=0.05)
        assert snap["steady"] is False
        assert snap["warmup_samples"] is None
        assert snap["steady_since_window"] is None

    def test_flat_series_steady_immediately(self):
        snap = windows([50.0] * 200, window_size=20, stable_windows=3)
        assert snap["steady"]
        assert snap["steady_since_window"] == 1
        assert snap["warmup_samples"] == 20

    def test_boundary_is_the_first_calm_run(self):
        # Calm from window 1, a jump at window 5, calm again: the first
        # run of three calm windows decides, later jumps do not move it.
        means = [100.0, 50.0, 50.0, 50.0, 50.0, 90.0, 90.0, 90.0, 90.0]
        snap = windows([m for m in means for _ in range(10)], window_size=10)
        assert snap["steady_since_window"] == 2
        assert snap["warmup_samples"] == 20

    def test_recent_covs_are_the_last_64_windows(self):
        values = [float(v) for v in range(2000)]
        snap = windows(values, window_size=10)
        assert snap["n_windows"] == 200
        covs = snap["recent_covs"]
        assert len(covs) == 64
        # oldest listed window is the (200-64)th
        first = values[1360:1370]
        assert covs[0] == round(np.std(first) / np.mean(first), 6)

    def test_per_window_cov(self):
        rng = np.random.default_rng(5)
        quiet = rng.normal(100.0, 1.0, 100)
        noisy = rng.normal(100.0, 30.0, 100)
        covs = windows(np.concatenate([quiet, noisy]).tolist())["recent_covs"]
        assert len(covs) == 2
        assert covs[0] < 0.05 < covs[1]

    def test_last_window_mean_is_the_naive_running_sum(self):
        values = np.random.default_rng(9).lognormal(3.0, 0.8, 250).tolist()
        last = windows(values)["last_window"]
        running = 0.0
        for value in values[100:200]:
            running += value
        assert (last["start"], last["count"]) == (100, 100)
        assert last["mean"] == running / 100

    def test_short_series_has_no_window(self):
        snap = windows([50.0] * 99)
        assert snap["n_windows"] == 0 and snap["last_window"] is None
        assert snap["recent_covs"] == [] and snap["steady"] is False


class TestTelemetryBus:
    def test_publish_appends_to_the_named_series(self):
        bus = TelemetryBus()
        for value in (1.0, 2.0, 3.0):
            bus.publish("tick_ms", value)
        assert bus.series.keys() == {"tick_ms"}
        assert bus.series["tick_ms"].tolist() == [1.0, 2.0, 3.0]
        assert bus.stream("tick_ms") is bus.series["tick_ms"]

    def test_stream_registers_an_empty_series(self):
        bus = TelemetryBus()
        assert len(bus.stream("b")) == 0
        bus.publish("a", 1.0)
        assert sorted(bus.series) == ["a", "b"]

    def test_watch_returns_the_stream(self):
        # Old callers pass the windowed view's keywords; they are ignored.
        bus = TelemetryBus()
        watched = bus.watch("tick_ms", window_size=100)
        bus.publish("tick_ms", 20.0)
        assert watched is bus.stream("tick_ms")
        assert watched.tolist() == [20.0]

    def test_series_keep_full_double_precision(self):
        bus = TelemetryBus()
        values = [0.1, 1e-300, 2.0**53 + 2.0, math.pi]
        for value in values:
            bus.publish("x", value)
        assert bus.series["x"].tolist() == values


def test_scrapes_racing_the_tick_read_consistent_prefixes():
    # A live scrape summarizes the series from the endpoint's thread while
    # the loop appends.  Every read must see one prefix, and no append may
    # fail (an array that is exporting its buffer refuses to grow).
    tap = ServerTelemetry(50_000)
    server = SimpleNamespace(telemetry=tap)
    record = SimpleNamespace(
        duration_ms=20.0, duration_us=20_000, wait_us=30_000,
        breakdown_us={"Other": 20_000.0}, entities=3,
    )
    errors, stop = [], threading.Event()

    def tick():
        while not stop.is_set():
            for _ in range(500):
                tap.observe_tick(record)
                tap.observe_response(5.0)
                tap.bus.publish(WIRE_FLUSH_US, 7.0)

    def scrape():
        while not stop.is_set():
            snap = tap.snapshot()
            windows_seen = snap["windows"]["n_samples"]
            assert snap["ticks"] == snap["tick_ms"]["count"] == windows_seen
            assert tap.response_snapshot()["count"] <= len(tap.response_ms)
            flush = wire_metrics_snapshot(server)[WIRE_FLUSH_US]
            assert flush["total"] == 7.0 * flush["count"]

    def guarded(target):
        try:
            target()
        except BaseException as exc:  # surface into the test thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=guarded, args=(tick,))] + [
            threading.Thread(target=guarded, args=(scrape,)) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(10)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(tap.tick_ms) > 0
