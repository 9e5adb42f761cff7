"""The push-based metric bus: named streams of bounded-memory telemetry.

Producers ``publish(name, value)``; the bus routes each observation into
that metric's :class:`~repro.telemetry.accumulators.MetricAccumulator`
and into an optional :class:`~repro.telemetry.windowed.WindowedSeries`
(attached with :meth:`TelemetryBus.watch`).  Everything is synchronous
and deterministic — the bus adds no threads and no wall-clock reads, so
runs stay bit-identical however telemetry is consumed.
"""

from __future__ import annotations

from repro.telemetry.accumulators import MetricAccumulator
from repro.telemetry.windowed import WindowedSeries

__all__ = ["TelemetryBus"]


class TelemetryBus:
    """Registry of streaming metrics and their windowed views."""

    def __init__(self, tail_size: int = 256, max_bins: int = 64) -> None:
        self.tail_size = tail_size
        self.max_bins = max_bins
        self._metrics: dict[str, MetricAccumulator] = {}
        self._windows: dict[str, WindowedSeries] = {}

    # -- registration -------------------------------------------------------

    def metric(
        self, name: str, thresholds: dict[str, float] | None = None
    ) -> MetricAccumulator:
        """Get or lazily create the accumulator for ``name``.

        ``thresholds`` only applies on first creation; asking again with
        different thresholds is a configuration error.
        """
        acc = self._metrics.get(name)
        if acc is None:
            acc = MetricAccumulator(
                name=name,
                thresholds=thresholds,
                max_bins=self.max_bins,
                tail_size=self.tail_size,
            )
            self._metrics[name] = acc
        elif thresholds and thresholds != acc.thresholds:
            raise ValueError(
                f"metric {name!r} already registered with thresholds "
                f"{acc.thresholds!r}"
            )
        return acc

    def watch(self, name: str, **window_kwargs) -> WindowedSeries:
        """Attach (or fetch) a windowed view of metric ``name``."""
        series = self._windows.get(name)
        if series is None:
            series = WindowedSeries(**window_kwargs)
            self._windows[name] = series
            self.metric(name)
        return series

    # -- publishing ---------------------------------------------------------

    def publish(self, name: str, value: float) -> None:
        self.metric(name).update(value)
        series = self._windows.get(name)
        if series is not None:
            series.update(value)

    # -- reading ------------------------------------------------------------

    @property
    def metric_names(self) -> list[str]:
        return sorted(self._metrics)
