"""The server tick tap: per-tick telemetry folded as the loop runs.

One :class:`ServerTelemetry` instance rides on each MLG server.  The
game loop pushes every finished tick record through :meth:`observe_tick`
and the tap folds it into bounded-memory state:

- the ``tick_ms`` metric (moments, quantile sketch, budget exceedance,
  recent tail) on a :class:`~repro.telemetry.bus.TelemetryBus`;
- a windowed view of ``tick_ms`` (per-window CoV, warmup→steady-state);
- running Fig. 11 bucket totals, wait/wall totals, and overload counts —
  what :class:`~repro.core.collectors.MetricExternalizer` previously
  recomputed by re-walking ``tick_records`` on every call;
- a streaming Instability Ratio (Equation 1 needs only the previous
  period, the running jitter sum, and the running period sum).

The tap never stores tick records, so a server can run for as long as
the hardware allows with constant telemetry memory.  It is deliberately
duck-typed against the record (``duration_ms``/``duration_us``/
``wait_us``/``breakdown_us``/``overloaded``) so the telemetry package
does not depend on :mod:`repro.mlg`.

Which figure or table of the paper each streamed metric feeds is
tabulated once, beside the metric catalog
(:mod:`repro.telemetry.catalog`), which also names the two bus streams
this tap publishes.
"""

from __future__ import annotations

from repro.metrics.stats import NOTICEABLE_MS, UNPLAYABLE_MS
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.catalog import RESPONSE_MS, TICK_MS

__all__ = ["ServerTelemetry"]


class ServerTelemetry:
    """Streaming per-tick telemetry for one server (O(1) memory)."""

    def __init__(
        self,
        budget_us: int,
        window_size: int = 100,
        tail_size: int = 256,
    ) -> None:
        self.budget_us = budget_us
        self.budget_ms = budget_us / 1000.0
        self.bus = TelemetryBus(tail_size=tail_size)
        self.tick_ms = self.bus.metric(
            TICK_MS, thresholds={"budget": self.budget_ms}
        )
        self.windows = self.bus.watch(TICK_MS, window_size=window_size)
        #: Response times, published by the emulated players as each
        #: chat-probe echo arrives (thresholds: the §3.5.1 QoS cutoffs).
        self.response_ms = self.bus.metric(
            RESPONSE_MS,
            thresholds={
                "noticeable": NOTICEABLE_MS,
                "unplayable": UNPLAYABLE_MS,
            },
        )
        #: Running Fig. 11 totals: simulated µs per work bucket.
        self.bucket_totals_us: dict[str, float] = {}
        self.wait_after_us = 0.0
        self.wall_us = 0.0
        self.ticks = 0
        self.overloaded_ticks = 0
        #: Live-entity population at the last observed tick / its maximum —
        #: the entity-kernel scale the tick durations were measured at.
        self.entities_last = 0
        self.entities_peak = 0
        # Streaming ISR state (Equation 1, all in ms).
        self._prev_period_ms: float | None = None
        self._jitter_sum_ms = 0.0
        self._period_sum_ms = 0.0

    # -- the tap ------------------------------------------------------------

    def observe_tick(self, record) -> None:
        """Fold one finished tick record into the streaming state."""
        self.ticks += 1
        duration_ms = record.duration_ms
        self.bus.publish(TICK_MS, duration_ms)
        for bucket, us in record.breakdown_us.items():
            self.bucket_totals_us[bucket] = (
                self.bucket_totals_us.get(bucket, 0.0) + us
            )
        self.wait_after_us += record.wait_us
        self.wall_us += record.duration_us + record.wait_us
        if record.overloaded:
            self.overloaded_ticks += 1
        entities = getattr(record, "entities", None)
        if entities is not None:
            self.entities_last = entities
            if entities > self.entities_peak:
                self.entities_peak = entities
        period_ms = max(duration_ms, self.budget_ms)
        if self._prev_period_ms is not None:
            self._jitter_sum_ms += abs(period_ms - self._prev_period_ms)
        self._prev_period_ms = period_ms
        self._period_sum_ms += period_ms

    def observe_response(self, response_ms: float) -> None:
        """Fold one completed client probe (bot-side response time)."""
        self.bus.publish(RESPONSE_MS, response_ms)

    # -- derived metrics ----------------------------------------------------

    @property
    def overloaded_fraction(self) -> float:
        if self.ticks == 0:
            return 0.0
        return self.overloaded_ticks / self.ticks

    @property
    def isr(self) -> float:
        """Streaming Instability Ratio over everything observed so far."""
        if self.ticks < 2:
            return 0.0
        n_expected = int(round(self._period_sum_ms / self.budget_ms))
        if n_expected <= 0:
            return 0.0
        return self._jitter_sum_ms / (n_expected * 2.0 * self.budget_ms)

    def snapshot(self, include_tails: bool = True) -> dict:
        """JSON-able streaming summary of the whole run so far."""
        return {
            "ticks": self.ticks,
            "isr": self.isr,
            "overloaded_fraction": self.overloaded_fraction,
            "tick_ms": self.tick_ms.snapshot(include_tail=include_tails),
            "windows": self.windows.snapshot(),
            "breakdown_us": dict(sorted(self.bucket_totals_us.items())),
            "wait_after_us": self.wait_after_us,
            "wall_us": self.wall_us,
            "entities_last": self.entities_last,
            "entities_peak": self.entities_peak,
        }
