"""The server tick tap: what the game loop records per tick.

One :class:`ServerTelemetry` rides on each MLG server.  The game loop
pushes every finished tick record through :meth:`observe_tick`; the tap
keeps the raw ``tick_ms`` series, and the ``response_ms`` series the
emulated players publish as each chat-probe echo arrives, on a
:class:`~repro.telemetry.bus.TelemetryBus` (stream names from
:mod:`repro.telemetry.catalog`), plus running Fig. 11 bucket, wait and
wall totals and the live-entity population.  :meth:`snapshot` summarizes
the series when it is read; its ISR is
:func:`repro.metrics.isr.instability_ratio` of the tick series, as
:attr:`repro.core.results.IterationResult.isr` is.  The tap is
duck-typed against the record: of :mod:`repro.mlg` it reads only the
QoS cutoffs in :mod:`repro.mlg.constants`.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.isr import instability_ratio
from repro.mlg.constants import NOTICEABLE_MS, UNPLAYABLE_MS
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.catalog import RESPONSE_MS, TICK_MS
from repro.telemetry.summary import summarize, windows

__all__ = ["ServerTelemetry"]


class ServerTelemetry:
    """Raw per-tick and per-response series for one server, plus the
    running Fig. 11 sums."""

    def __init__(self, budget_us: int) -> None:
        self.budget_ms = budget_us / 1000.0
        self.bus = TelemetryBus()
        self.tick_ms = self.bus.stream(TICK_MS)
        self.response_ms = self.bus.stream(RESPONSE_MS)
        #: Running Fig. 11 totals: simulated µs per work bucket.
        self.bucket_totals_us: dict[str, float] = {}
        self.wait_after_us = 0.0
        self.wall_us = 0.0
        #: Live-entity population at the last observed tick / its maximum —
        #: the entity-kernel scale the tick durations were measured at.
        self.entities_last = 0
        self.entities_peak = 0

    def observe_tick(self, record) -> None:
        """Record one finished tick."""
        self.tick_ms.append(record.duration_ms)
        totals = self.bucket_totals_us
        for bucket, us in record.breakdown_us.items():
            totals[bucket] = totals.get(bucket, 0.0) + us
        self.wait_after_us += record.wait_us
        self.wall_us += record.duration_us + record.wait_us
        self.entities_last = record.entities
        if record.entities > self.entities_peak:
            self.entities_peak = record.entities

    def observe_response(self, response_ms: float) -> None:
        """Record one completed client probe (bot-side response time)."""
        self.response_ms.append(response_ms)

    def snapshot(self) -> dict:
        """JSON-able summary of the run so far, all from one copy of the
        tick series (see :func:`~repro.telemetry.summary.summarize`)."""
        ticks = np.array(self.tick_ms[:])
        tick_ms = summarize(ticks, {"budget": self.budget_ms})
        return {
            "ticks": len(ticks),
            "isr": instability_ratio(ticks, self.budget_ms),
            "overloaded_fraction": tick_ms["frac_over_budget"],
            "tick_ms": tick_ms,
            "windows": windows(ticks),
            "breakdown_us": dict(sorted(self.bucket_totals_us.items())),
            "wait_after_us": self.wait_after_us,
            "wall_us": self.wall_us,
            "entities_last": self.entities_last,
            "entities_peak": self.entities_peak,
        }

    def response_snapshot(self) -> dict:
        """Summary of the client response times so far, with exceedance
        of the §3.5.1 QoS cutoffs."""
        return summarize(
            self.response_ms,
            {"noticeable": NOTICEABLE_MS, "unplayable": UNPLAYABLE_MS},
        )
