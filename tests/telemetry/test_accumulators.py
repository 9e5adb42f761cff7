"""Accuracy and merge-property tests for the streaming accumulators.

The quantile sketch is checked against ``numpy.percentile`` on
uniform, lognormal, and bimodal inputs with tolerance bands scaled to
each distribution's p1–p99 range; Welford
merging is property-tested to be order-insensitive and to agree with
single-stream accumulation.
"""

import math

import numpy as np
import pytest

from repro.telemetry import (
    MetricAccumulator,
    QuantileSketch,
    RingBuffer,
    WelfordAccumulator,
)

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


class TestQuantileSketchAccuracy:
    @pytest.mark.parametrize("dist", ["uniform", "lognormal", "bimodal"])
    @pytest.mark.parametrize("q", [25, 50, 75, 95, 99])
    def test_quantiles_within_tolerance(self, dist, q):
        data = _distributions()[dist]
        sketch = QuantileSketch()
        for value in data:
            sketch.update(value)
        true = float(np.percentile(data, q))
        est = sketch.quantile(q / 100.0)
        spread = float(np.percentile(data, 99) - np.percentile(data, 1))
        # The bimodal median sits in the empty gap between modes, where
        # every interpolating estimator (numpy included) is arbitrary —
        # allow the gap there; elsewhere demand 2% of the p1-p99 range.
        tol = 0.5 * spread if (dist == "bimodal" and q == 50) else 0.02 * spread
        assert abs(est - true) <= tol

    def test_extremes_are_exact(self):
        data = _distributions()["lognormal"]
        sketch = QuantileSketch()
        for value in data:
            sketch.update(value)
        assert sketch.quantile(0.0) == data.min()
        assert sketch.quantile(1.0) == data.max()

    def test_bounded_memory(self):
        sketch = QuantileSketch(max_bins=64)
        for value in _distributions()["lognormal"]:
            sketch.update(value)
        assert len(sketch._bins) <= 64
        assert sketch.count == N

    def test_merge_matches_single_stream(self):
        data = _distributions()["lognormal"]
        merged = QuantileSketch()
        for chunk in np.array_split(data, 7):
            part = QuantileSketch()
            for value in chunk:
                part.update(value)
            merged.merge(part)
        single = QuantileSketch()
        for value in data:
            single.update(value)
        spread = float(np.percentile(data, 99) - np.percentile(data, 1))
        for q in (0.25, 0.5, 0.75, 0.95, 0.99):
            assert abs(merged.quantile(q) - single.quantile(q)) <= 0.03 * spread
        assert merged.count == single.count == N

    def test_serialization_round_trip(self):
        sketch = QuantileSketch()
        for value in _distributions()["uniform"][:5000]:
            sketch.update(value)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        for q in (0.25, 0.5, 0.95):
            assert clone.quantile(q) == sketch.quantile(q)
        assert clone.count == sketch.count


class TestWelfordMergeProperties:
    """Merging accumulators is order-insensitive and matches one stream."""

    def _fill(self, values) -> WelfordAccumulator:
        acc = WelfordAccumulator()
        for value in values:
            acc.update(value)
        return acc

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_merge_matches_single_stream(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.lognormal(2.0, 1.0, 5000)
        n_parts = int(rng.integers(2, 9))
        cuts = sorted(rng.integers(1, len(data) - 1, n_parts - 1))
        merged = WelfordAccumulator()
        for chunk in np.split(data, cuts):
            merged.merge(self._fill(chunk))
        single = self._fill(data)
        assert merged.count == single.count
        assert merged.mean == pytest.approx(single.mean, rel=1e-12)
        assert merged.std == pytest.approx(single.std, rel=1e-9)

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_merge_is_order_insensitive(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(50.0, 10.0, 3000)
        parts = [self._fill(chunk) for chunk in np.array_split(data, 5)]
        forward = WelfordAccumulator()
        for part in parts:
            forward.merge(part)
        backward = WelfordAccumulator()
        for part in reversed(parts):
            backward.merge(part)
        assert forward.count == backward.count
        assert forward.mean == pytest.approx(backward.mean, rel=1e-12)
        assert forward.m2 == pytest.approx(backward.m2, rel=1e-9)

    def test_merge_empty_is_identity(self):
        acc = self._fill([1.0, 2.0, 3.0])
        before = (acc.count, acc.mean, acc.m2)
        acc.merge(WelfordAccumulator())
        assert (acc.count, acc.mean, acc.m2) == before
        empty = WelfordAccumulator()
        empty.merge(acc)
        assert empty.mean == acc.mean

    def test_matches_numpy_moments(self):
        data = _distributions()["lognormal"]
        acc = self._fill(data)
        assert acc.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert acc.std == pytest.approx(float(data.std(ddof=0)), rel=1e-9)
        assert acc.cov == pytest.approx(
            float(data.std(ddof=0) / data.mean()), rel=1e-9
        )


class TestRingBuffer:
    def test_keeps_most_recent_in_order(self):
        buf = RingBuffer(4)
        for i in range(10):
            buf.append(float(i))
        assert buf.values() == [6.0, 7.0, 8.0, 9.0]
        assert len(buf) == 4

    def test_partial_fill(self):
        buf = RingBuffer(8)
        for i in range(3):
            buf.append(float(i))
        assert buf.values() == [0.0, 1.0, 2.0]


class TestMetricAccumulator:
    def test_mean_bit_identical_to_naive_sum(self):
        data = list(_distributions()["lognormal"][:4000])
        acc = MetricAccumulator("x")
        for value in data:
            acc.update(value)
        assert acc.mean == sum(data) / len(data)

    def test_threshold_fractions(self):
        acc = MetricAccumulator("tick", thresholds={"budget": 50.0})
        for value in (10.0, 60.0, 50.0, 80.0):
            acc.update(value)
        snap = acc.snapshot()
        assert snap["frac_over_budget"] == pytest.approx(0.5)

    def test_merge_combines_everything(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0, 100, 6000)
        a = MetricAccumulator("x", thresholds={"hi": 90.0})
        b = MetricAccumulator("x", thresholds={"hi": 90.0})
        for value in data[:2500]:
            a.update(value)
        for value in data[2500:]:
            b.update(value)
        a.merge(b)
        assert a.count == len(data)
        assert a.mean == pytest.approx(float(data.mean()), rel=1e-12)
        assert a.minimum == data.min()
        assert a.maximum == data.max()
        assert a.snapshot()["frac_over_hi"] == pytest.approx(
            float((data > 90.0).mean())
        )

    def test_serialization_round_trip(self):
        acc = MetricAccumulator("x", thresholds={"hi": 5.0}, tail_size=8)
        for value in range(20):
            acc.update(float(value))
        clone = MetricAccumulator.from_dict(acc.to_dict())
        assert clone.snapshot() == acc.snapshot()
        assert clone.tail.values() == acc.tail.values()

    def test_empty_snapshot_is_defined(self):
        snap = MetricAccumulator("x").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert not math.isinf(snap["min"])

    @pytest.mark.parametrize(
        "stream", ["continuous", "few_values", "integers", "one_value"]
    )
    def test_update_many_is_bit_identical_to_update(self, stream):
        # Batches of every size, repeats within and across batches, and
        # enough distinct values to push the sketch past its budget: the
        # batch path may reorder work only where the result cannot tell.
        rng = np.random.default_rng(11)
        data = {
            "continuous": rng.lognormal(0.0, 2.0, 1500).tolist(),
            "few_values": rng.choice([0.0, -0.0, 1.5, 2.25, 7.0], 600).tolist(),
            "integers": [int(v) for v in rng.integers(0, 200, 900)],
            "one_value": [3.5] * 300,
        }[stream]
        kwargs = dict(thresholds={"low": 1.0, "high": 50.0}, tail_size=16)
        one_by_one = MetricAccumulator("x", **kwargs)
        for value in data:
            one_by_one.update(value)
        batched = MetricAccumulator("x", **kwargs)
        start = 0
        while start < len(data):
            size = int(rng.choice([0, 1, 2, 32, 100]))
            batched.update_many(data[start : start + size])
            start += size
        assert repr(batched.to_dict()) == repr(one_by_one.to_dict())
        assert repr(batched.snapshot()) == repr(one_by_one.snapshot())

    def test_sketch_gaps_follow_the_centroids(self):
        rng = np.random.default_rng(5)
        sketch = QuantileSketch(max_bins=16)
        other = QuantileSketch(max_bins=16)
        for value in rng.normal(0.0, 10.0, 400):
            sketch.update(float(value))
            bins = sketch._bins
            assert sketch._gaps == [b - a for a, b in zip(bins, bins[1:])]
        other.update_many(rng.normal(5.0, 1.0, 100).tolist())
        sketch.merge(other)
        for restored in (sketch, QuantileSketch.from_dict(sketch.to_dict())):
            bins = restored._bins
            assert restored._gaps == [b - a for a, b in zip(bins, bins[1:])]
