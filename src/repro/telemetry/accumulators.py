"""Bounded-memory online accumulators for the streaming telemetry bus.

Every class here consumes one observation at a time in O(1) amortized
work and O(1) memory, and can serialize itself to a plain JSON-able dict
— the property the campaign executor relies on to stream per-iteration
telemetry into sidecar shards while a run is still in flight.

The building blocks:

``WelfordAccumulator``
    Exact streaming moments (count/mean/variance) via Welford's update,
    mergeable with Chan's parallel formula.  Merging is order-insensitive
    and agrees with single-stream accumulation to float rounding.
``QuantileSketch``
    A mergeable constant-memory streaming histogram (Ben-Haim &
    Tom-Tov style); answers *any* quantile, so one sketch serves
    p25/p50/p75/p95/p99 at once.
``RingBuffer``
    Fixed-capacity recent-tail store for live timeseries views.
``MetricAccumulator``
    The composite the bus hands out per metric: naive sum (so means are
    bit-identical with ``sum(xs)/len(xs)``), Welford moments, min/max,
    threshold exceedance counts, a quantile sketch, and a tail buffer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import repeat
from operator import add, itemgetter, sub

__all__ = [
    "MetricAccumulator",
    "QuantileSketch",
    "RingBuffer",
    "WelfordAccumulator",
]


class WelfordAccumulator:
    """Streaming count/mean/variance with exact pairwise merge."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def update_many(self, values) -> None:
        """``update`` for each value in order, in one call."""
        count, mean, m2 = self.count, self.mean, self.m2
        for value in values:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self.mean, self.m2 = count, mean, m2

    def merge(self, other: "WelfordAccumulator") -> None:
        """Fold ``other`` in (Chan et al.'s parallel variance formula)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Population variance (ddof=0), 0.0 until two observations."""
        if self.count < 2:
            return 0.0
        return max(0.0, self.m2 / self.count)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def cov(self) -> float:
        """Coefficient of variation std/|mean| (0.0 for a ~zero mean)."""
        if self.count == 0 or abs(self.mean) < 1e-12:
            return 0.0
        return self.std / abs(self.mean)

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_dict(cls, data: dict) -> "WelfordAccumulator":
        acc = cls()
        acc.count = int(data["count"])
        acc.mean = float(data["mean"])
        acc.m2 = float(data["m2"])
        return acc


class QuantileSketch:
    """Mergeable constant-memory quantile sketch (streaming histogram).

    Maintains at most ``max_bins`` (value, count) centroids; inserting
    collapses the two closest centroids when the budget is exceeded.
    Quantiles are answered by linear interpolation over cumulative
    counts.  Merging concatenates centroid lists and re-compresses, so it
    is order-insensitive up to compression ties — accuracy is bounded by
    bin resolution, not by which stream a sample arrived on.
    """

    __slots__ = (
        "max_bins",
        "_bins",
        "_counts",
        "_gaps",
        "_min",
        "_max",
        "_count",
    )

    def __init__(self, max_bins: int = 64) -> None:
        if max_bins < 8:
            raise ValueError(f"max_bins must be >= 8, got {max_bins!r}")
        self.max_bins = max_bins
        #: Sorted centroid values and, in step, their masses: flat lists,
        #: so the search runs in C.  ``_gaps[i]`` is kept equal to
        #: ``_bins[i + 1] - _bins[i]``, so finding the closest pair is a
        #: ``min`` and not 64 subtractions on every collapse.
        self._bins: list[float] = []
        self._counts: list[float] = []
        self._gaps: list[float] = []
        self._min = math.inf
        self._max = -math.inf
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def update(self, value: float) -> None:
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        bins = self._bins
        lo = bisect_left(bins, value)
        if lo < len(bins) and bins[lo] == value:
            self._counts[lo] += 1.0
        else:
            self._insert(lo, value, 1.0)

    def update_many(self, values) -> None:
        """``update`` for each value of a list in order, in one call."""
        if not values:
            return
        self._count += len(values)
        self._min = min(self._min, min(values))
        self._max = max(self._max, max(values))
        bins, counts = self._bins, self._counts
        # While nothing can be compressed the sketch is an exact tally,
        # which does not depend on the order: add each of the batch's
        # distinct values once, with its multiplicity.  Past the budget a
        # collapse moves centroids under later values, so each value goes
        # in on its own.
        distinct = set(values)
        if len(bins) + len(distinct) <= self.max_bins:
            pairs = zip(distinct, map(values.count, distinct))
        else:
            pairs = zip(values, repeat(1))
        for value, n in pairs:
            lo = bisect_left(bins, value)
            if lo < len(bins) and bins[lo] == value:
                counts[lo] += n
            else:
                self._insert(lo, value, float(n))

    def _insert(self, lo: int, value: float, count: float) -> None:
        """A new centroid at ``lo``; collapse a pair if over the budget."""
        bins, gaps = self._bins, self._gaps
        bins.insert(lo, value)
        self._counts.insert(lo, count)
        last = len(bins) - 1
        if 0 < lo < last:
            gaps[lo - 1 : lo] = (value - bins[lo - 1], bins[lo + 1] - value)
        elif lo < last:
            gaps.insert(0, bins[1] - value)
        elif lo > 0:
            gaps.append(value - bins[lo - 1])
        if len(bins) > self.max_bins:
            self._compress_once()

    def _compress_once(self) -> None:
        """Collapse the closest adjacent centroid pair (count-weighted)."""
        bins, counts, gaps = self._bins, self._counts, self._gaps
        best = gaps.index(min(gaps))  # the first of equally close pairs
        c1, c2 = counts[best], counts[best + 1]
        total = c1 + c2
        bins[best] = (bins[best] * c1 + bins[best + 1] * c2) / total
        counts[best] = total
        del bins[best + 1], counts[best + 1], gaps[best]
        if best > 0:
            gaps[best - 1] = bins[best] - bins[best - 1]
        if best < len(gaps):
            gaps[best] = bins[best + 1] - bins[best]

    def merge(self, other: "QuantileSketch") -> None:
        if other._count == 0:
            return
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        merged = sorted(
            zip(self._bins + other._bins, self._counts + other._counts),
            key=itemgetter(0),
        )
        self._bins = [value for value, _ in merged]
        self._counts = [count for _, count in merged]
        self._gaps = list(map(sub, self._bins[1:], self._bins))
        while len(self._bins) > self.max_bins:
            self._compress_once()

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self._count == 0:
            raise ValueError("no observations yet")
        if q <= 0.0:
            return self._min
        if q >= 1.0:
            return self._max
        target = q * self._count
        # Cumulative count at each centroid, treating each centroid's mass
        # as centred on its value; clamp to the observed extremes.
        cum = 0.0
        prev_value, prev_cum = self._min, 0.0
        for value, count in zip(self._bins, self._counts):
            centre = cum + count / 2.0
            if centre >= target:
                if centre <= prev_cum:
                    return value
                frac = (target - prev_cum) / (centre - prev_cum)
                return prev_value + frac * (value - prev_value)
            prev_value, prev_cum = value, centre
            cum += count
        if self._count <= prev_cum:
            return self._max
        frac = (target - prev_cum) / (self._count - prev_cum)
        return prev_value + frac * (self._max - prev_value)

    def to_dict(self) -> dict:
        return {
            "max_bins": self.max_bins,
            "bins": [[v, c] for v, c in zip(self._bins, self._counts)],
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "count": self._count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        sketch = cls(max_bins=int(data["max_bins"]))
        sketch._bins = [float(v) for v, _ in data["bins"]]
        sketch._counts = [float(c) for _, c in data["bins"]]
        sketch._gaps = list(map(sub, sketch._bins[1:], sketch._bins))
        sketch._count = int(data["count"])
        if sketch._count:
            sketch._min = float(data["min"])
            sketch._max = float(data["max"])
        return sketch


class RingBuffer:
    """Fixed-capacity tail of the most recent observations, in order."""

    __slots__ = ("capacity", "_data", "_next", "_full")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._data: list[float] = []
        self._next = 0
        self._full = False

    def __len__(self) -> int:
        return len(self._data)

    def append(self, value: float) -> None:
        if self._full:
            self._data[self._next] = value
            self._next = (self._next + 1) % self.capacity
        else:
            self._data.append(value)
            if len(self._data) == self.capacity:
                self._full = True

    def values(self) -> list[float]:
        """The retained tail, oldest first."""
        if not self._full:
            return list(self._data)
        return self._data[self._next :] + self._data[: self._next]


class MetricAccumulator:
    """Everything the telemetry bus keeps per metric, in O(1) memory.

    ``mean`` is computed from a plain running sum, so for any sequence of
    updates it is bit-identical to ``sum(values) / len(values)`` — the
    invariant that keeps the streamed summaries byte-for-byte stable
    beside the raw lists.  (Summaries that numpy computes
    from raw arrays use pairwise summation and may differ from the
    streaming value in the last ULP; the guarantee is against the naive
    sequential sum, which is what the collectors' summaries use.)

    ``thresholds`` maps a label to a cutoff; the snapshot reports the
    fraction of observations *strictly above* each cutoff (mirroring
    ``repro.metrics.stats.summarize``'s QoS exceedance fields).
    """

    #: Quantiles every snapshot reports.
    SNAPSHOT_QUANTILES = (0.25, 0.50, 0.75, 0.95, 0.99)

    __slots__ = (
        "name",
        "total",
        "minimum",
        "maximum",
        "welford",
        "sketch",
        "tail",
        "thresholds",
        "_over",
    )

    def __init__(
        self,
        name: str = "",
        thresholds: dict[str, float] | None = None,
        max_bins: int = 64,
        tail_size: int = 256,
    ) -> None:
        self.name = name
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.welford = WelfordAccumulator()
        self.sketch = QuantileSketch(max_bins=max_bins)
        self.tail = RingBuffer(tail_size) if tail_size else None
        self.thresholds = dict(thresholds or {})
        self._over = {label: 0 for label in self.thresholds}

    @property
    def count(self) -> int:
        return self.welford.count

    @property
    def mean(self) -> float:
        if self.welford.count == 0:
            return 0.0
        return self.total / self.welford.count

    def update(self, value: float) -> None:
        value = float(value)
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.welford.update(value)
        self.sketch.update(value)
        if self.tail is not None:
            self.tail.append(value)
        for label, cutoff in self.thresholds.items():
            if value > cutoff:
                self._over[label] += 1

    def update_many(self, values) -> None:
        """``update`` for each value in order, in one call.

        Every field ends bit-identical with the one-at-a-time path: the
        sum and the moments run the same operations in the same order, and
        the sketch does wherever the order matters.  A batch saves the
        three calls per value and lets the sketch add repeats once.
        """
        values = list(map(float, values))
        if not values:
            return
        # Not ``sum``: since 3.12 it compensates, the running sum does not.
        self.total = reduce(add, values, self.total)
        self.minimum = min(self.minimum, min(values))
        self.maximum = max(self.maximum, max(values))
        self.welford.update_many(values)
        self.sketch.update_many(values)
        if self.tail is not None:
            for value in values:
                self.tail.append(value)
        for label, cutoff in self.thresholds.items():
            self._over[label] += sum(value > cutoff for value in values)

    def merge(self, other: "MetricAccumulator") -> None:
        """Fold another shard of the same metric in.

        Moments, extremes, counts, and exceedance fractions merge
        exactly; quantiles merge at sketch resolution; the tail keeps
        ``other``'s most recent values (it is the *newer* shard by
        convention).
        """
        if other.count == 0:
            return
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.welford.merge(other.welford)
        self.sketch.merge(other.sketch)
        if self.tail is not None and other.tail is not None:
            for value in other.tail.values():
                self.tail.append(value)
        for label, count in other._over.items():
            if label in self._over:
                self._over[label] += count
            else:
                self._over[label] = count
                self.thresholds[label] = other.thresholds[label]

    def quantile(self, q: float) -> float:
        return self.sketch.quantile(q)

    def snapshot(self, include_tail: bool = True) -> dict:
        """JSON-able summary of everything this metric has seen."""
        count = self.count
        snap: dict = {
            "count": count,
            "mean": self.mean,
            "std": self.welford.std,
            "cov": self.welford.cov,
            "min": self.minimum if count else 0.0,
            "max": self.maximum if count else 0.0,
        }
        for q in self.SNAPSHOT_QUANTILES:
            key = f"p{int(q * 100)}"
            snap[key] = self.sketch.quantile(q) if count else 0.0
        for label in self.thresholds:
            snap[f"frac_over_{label}"] = (
                self._over[label] / count if count else 0.0
            )
        if include_tail and self.tail is not None:
            snap["tail"] = self.tail.values()
        return snap

    def to_dict(self) -> dict:
        """Full mergeable state (unlike :meth:`snapshot`, lossless)."""
        return {
            "name": self.name,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "welford": self.welford.to_dict(),
            "sketch": self.sketch.to_dict(),
            "tail": self.tail.values() if self.tail is not None else None,
            "tail_size": self.tail.capacity if self.tail is not None else 0,
            "thresholds": dict(self.thresholds),
            "over": dict(self._over),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricAccumulator":
        acc = cls(
            name=data.get("name", ""),
            thresholds=data.get("thresholds") or {},
            max_bins=int(data["sketch"]["max_bins"]),
            tail_size=int(data.get("tail_size") or 0),
        )
        acc.total = float(data["total"])
        acc.welford = WelfordAccumulator.from_dict(data["welford"])
        acc.sketch = QuantileSketch.from_dict(data["sketch"])
        if acc.count:
            acc.minimum = float(data["min"])
            acc.maximum = float(data["max"])
        if acc.tail is not None and data.get("tail"):
            for value in data["tail"]:
                acc.tail.append(float(value))
        acc._over = {k: int(v) for k, v in (data.get("over") or {}).items()}
        for label in acc.thresholds:
            acc._over.setdefault(label, 0)
        return acc
