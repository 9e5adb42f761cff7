"""The metric bus: named raw series.

``publish(name, value)`` appends to that stream's ``array('d')`` — a
list append's cost at eight bytes a value, and one ``memcpy`` into
numpy — and readers summarize a stream when they need it
(:mod:`repro.telemetry.summary`).  The bus adds no threads and no
wall-clock reads, so runs stay bit-identical however it is read.
"""

from __future__ import annotations

from array import array

__all__ = ["TelemetryBus"]


class TelemetryBus:
    """Named raw series of floats."""

    def __init__(self) -> None:
        self.series: dict[str, array] = {}

    def stream(self, name: str) -> array:
        """The series ``name``, created empty on first use."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = array("d")
        return series

    def publish(self, name: str, value: float) -> None:
        self.stream(name).append(value)

    def watch(self, name: str, **_) -> array:
        # Shim: only benchmarks/hostclock calls it; goes with ROADMAP
        # item 12(e).
        return self.stream(name)

    @property
    def metric_names(self) -> list[str]:
        return sorted(self.series)
