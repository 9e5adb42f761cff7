"""Run telemetry: raw series kept as the run goes, summarized when read.

Every statistic a record line, report column or live scrape carries is
an exact function of one series the run kept.

- :mod:`repro.telemetry.bus` — :class:`TelemetryBus`: named raw series.
- :mod:`repro.telemetry.tap` — :class:`ServerTelemetry`: the per-server
  tick tap (tick and response series, Fig. 11 totals).
- :mod:`repro.telemetry.summary` — :func:`summarize` and :func:`windows`
  (the warmup→steady change point).
- :mod:`repro.telemetry.catalog` — every metric declared once, with the
  metric → paper figure/table map.
"""

from repro.telemetry.bus import TelemetryBus
from repro.telemetry.summary import summarize, windows
from repro.telemetry.tap import ServerTelemetry

__all__ = ["ServerTelemetry", "TelemetryBus", "summarize", "windows"]
