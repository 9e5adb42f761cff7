"""Streaming telemetry: bounded-memory online statistics for long runs.

The measurement loop used to materialize every tick record and system
sample into unbounded lists and re-walk them for each summary; this
package replaces that with push-based, mergeable accumulators so runs
can last as long as the hardware allows and campaigns are observable
*while* they run (``python -m repro status`` reads the JSONL telemetry
sidecars the executor streams per iteration).

Layers (bottom up):

- :mod:`repro.telemetry.accumulators` — Welford moments, mergeable
  quantile sketch, ring-buffer tails, and the per-metric composite
  :class:`MetricAccumulator`.
- :mod:`repro.telemetry.windowed` — :class:`WindowedSeries`: per-window
  CoV and the warmup→steady-state change point.
- :mod:`repro.telemetry.bus` — :class:`TelemetryBus`: named metric
  streams, each with an optional windowed view.
- :mod:`repro.telemetry.tap` — :class:`ServerTelemetry`: the per-server
  tick tap (streaming ISR, Fig. 11 bucket totals, overload fraction).

Beside them: :mod:`repro.telemetry.catalog` — every metric declared
once; its docstring carries the metric → paper figure/table map.
"""

from repro.telemetry.accumulators import (
    MetricAccumulator,
    QuantileSketch,
    RingBuffer,
    WelfordAccumulator,
)
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.tap import ServerTelemetry
from repro.telemetry.windowed import WindowedSeries, WindowSummary

__all__ = [
    "MetricAccumulator",
    "QuantileSketch",
    "RingBuffer",
    "ServerTelemetry",
    "TelemetryBus",
    "WelfordAccumulator",
    "WindowSummary",
    "WindowedSeries",
]
