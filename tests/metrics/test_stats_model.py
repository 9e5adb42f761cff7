"""Tests for the summary's order invariants, the QoS thresholds, and
the Fig. 6 synthetic trace generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import (
    NOTICEABLE_MS,
    UNPLAYABLE_MS,
    clustered_outlier_trace,
    instability_ratio,
    periodic_outlier_trace,
    spread_outlier_trace,
)
from repro.reporting.text import ascii_boxplot
from repro.telemetry.summary import summarize


class TestBoxStats:
    def test_known_values(self):
        stats = summarize(list(range(1, 101)))
        assert stats["count"] == 100
        assert stats["mean"] == 50.5
        assert stats["min"] == 1.0
        assert stats["max"] == 100.0
        assert stats["p50"] == 50.5

    def test_iqr_property(self):
        # The box of the paper's plots: linear-interpolated quartiles.
        data = list(range(1, 101))
        stats = summarize(data)
        assert stats["p75"] - stats["p25"] == 49.5
        q25, q75 = np.percentile(data, [25, 75])
        assert stats["p75"] - stats["p25"] == q75 - q25

    def test_whiskers_bounded_by_extremes(self):
        # 0..100 has quartiles 25 and 75, so its Tukey fences (-50, 150)
        # lie outside the data: the whiskers stop at min 0 (column 10 of
        # the -100..200 scale) and max 100 (column 20).
        out = ascii_boxplot(
            [("a", [float(x) for x in range(101)])],
            width=31,
            lo=-100.0,
            hi=200.0,
        )
        bar = out.splitlines()[0][2 : 2 + 31]
        assert bar[10] == "-" and bar[20] == "-"
        assert bar[:10].strip() == "" and bar[21:].strip() == ""

    def test_single_value_is_every_quantile(self):
        stats = summarize([7.0])
        assert stats["count"] == 1
        assert stats["std"] == 0.0
        for key in ("min", "p25", "p50", "p75", "p95", "p99", "max"):
            assert stats[key] == 7.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=300))
    def test_ordering_invariants(self, data):
        stats = summarize(data)
        assert (
            stats["min"]
            <= stats["p25"]
            <= stats["p50"]
            <= stats["p75"]
            <= stats["p95"]
            <= stats["p99"]
            <= stats["max"]
        )
        # The mean can drift one ulp outside [min, max] from summation
        # rounding (e.g. three identical large floats), hence the epsilon.
        eps = 1e-9 * max(1.0, abs(stats["max"]))
        assert stats["min"] - eps <= stats["mean"] <= stats["max"] + eps


class TestSummarize:
    def test_threshold_fractions(self):
        # 2 samples over 118, 3 over 60 (of 10).
        data = [10.0] * 7 + [80.0] + [200.0, 500.0]
        summary = summarize(
            data, {"noticeable": NOTICEABLE_MS, "unplayable": UNPLAYABLE_MS}
        )
        assert summary["frac_over_unplayable"] == pytest.approx(0.2)
        assert summary["frac_over_noticeable"] == pytest.approx(0.3)

    def test_max_over_mean(self):
        # MF1's headline ratio, as fig7 computes it from the summary.
        summary = summarize([10.0, 10.0, 100.0])
        assert summary["max"] / summary["mean"] == pytest.approx(100.0 / 40.0)

    def test_thresholds_match_paper(self):
        assert NOTICEABLE_MS == 60.0
        assert UNPLAYABLE_MS == 118.0


class TestTraceGenerators:
    def test_periodic_trace_outlier_count(self):
        trace = periodic_outlier_trace(100, 10, 20.0)
        assert int((trace > 50.0).sum()) == 10

    def test_clustered_and_spread_have_same_distribution(self):
        low = clustered_outlier_trace(1000, 5, 20.0)
        high = spread_outlier_trace(1000, 5, 20.0)
        assert sorted(low) == sorted(high)

    def test_fig6b_order_dependence(self):
        """Identical distributions, ISR an order of magnitude apart."""
        low = clustered_outlier_trace(1000, 5, 20.0)
        high = spread_outlier_trace(1000, 5, 20.0)
        isr_low = instability_ratio(low, 50.0)
        isr_high = instability_ratio(high, 50.0)
        assert isr_high > 4 * isr_low
        # Standard deviation is blind to the difference.
        assert np.std(low) == pytest.approx(np.std(high))

    def test_spread_outliers_are_isolated(self):
        trace = spread_outlier_trace(1000, 5, 20.0)
        outliers = np.flatnonzero(trace > 50.0)
        assert np.all(np.diff(outliers) > 1)

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            periodic_outlier_trace(10, 0, 2.0)
        with pytest.raises(ValueError):
            clustered_outlier_trace(10, 11, 2.0)
        with pytest.raises(ValueError):
            clustered_outlier_trace(10, 5, 2.0, start=8)
        with pytest.raises(ValueError):
            spread_outlier_trace(10, -1, 2.0)

    def test_zero_outliers(self):
        assert np.all(spread_outlier_trace(100, 0, 20.0) == 50.0)
