"""Result records produced by the experiment runner (FAIR-style export).

An :class:`IterationResult` captures everything one iteration measured;
an :class:`ExperimentResult` is the whole campaign plus its configuration,
exportable to JSON/CSV for the Data Retrieval component (Fig. 5, #9).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.metrics import instability_ratio
from repro.mlg.constants import NOTICEABLE_MS, TICK_BUDGET_MS, UNPLAYABLE_MS
from repro.telemetry.summary import summarize

__all__ = ["IterationResult", "ExperimentResult"]


@dataclass
class IterationResult:
    """All measurements from one (server, iteration) run.

    ``tick_durations_ms``/``response_times_ms`` hold the raw series every
    derived statistic is computed from; ``telemetry`` holds the summaries
    of the run's series (:mod:`repro.telemetry.summary`), computed from
    them at iteration end.
    """

    server: str
    workload: str
    environment: str
    iteration: int
    seed: int
    duration_s: float
    tick_durations_ms: list[float]
    response_times_ms: list[float]
    tick_distribution: dict[str, float]
    packet_counts: dict[str, int]
    packet_bytes: dict[str, int]
    entity_message_share: float
    entity_byte_share: float
    system_summary: dict[str, float]
    crashed: bool
    crash_reason: str | None
    throttled_ticks: int
    final_credits_s: float
    # Cell provenance (defaults keep pre-campaign result files loadable).
    scale: float = 1.0
    n_bots: int = 0
    behavior: str = ""
    #: Telemetry summaries: ``tick`` and ``response_ms``
    #: (ServerTelemetry), ``system`` (SystemMetricsCollector), and
    #: ``wire`` / ``trace`` / ``world`` where the cell has them.  Empty
    #: for results recorded before the telemetry subsystem.
    telemetry: dict = field(default_factory=dict)
    #: Run-provenance fingerprint (environment + resolved measurement
    #: config + sha256 digest), stamped by the runner.  Deliberately
    #: timestamp-free so re-runs of the same conditions are
    #: byte-identical.  Empty for results recorded before tracing.
    provenance: dict = field(default_factory=dict)

    @property
    def isr(self) -> float:
        """Instability Ratio of this iteration's tick trace (Equation 1)."""
        return instability_ratio(self.tick_durations_ms, TICK_BUDGET_MS)

    def tick_stats(self) -> dict[str, float]:
        """The tick series' summary, with its share over the budget —
        the tap's ``telemetry["tick"]["tick_ms"]``."""
        return summarize(self.tick_durations_ms, {"budget": TICK_BUDGET_MS})

    def response_stats(self) -> dict[str, float] | None:
        """The response series' summary, with its shares over the QoS
        cutoffs — the tap's ``telemetry["response_ms"]`` (``None`` for
        a run without responses)."""
        if self.response_times_ms:
            return summarize(
                self.response_times_ms,
                {"noticeable": NOTICEABLE_MS, "unplayable": UNPLAYABLE_MS},
            )
        return None

    def to_dict(self) -> dict:
        """The fields in declaration order, then ``isr``.  Shallow: the
        series and the telemetry are the result's own objects."""
        data = {key: getattr(self, key) for key in self.__dataclass_fields__}
        data["isr"] = self.isr
        return data

    @classmethod
    def from_dict(cls, raw: dict) -> "IterationResult":
        """Inverse of :meth:`to_dict`: the fields, and nothing else a
        line carries beside them (``isr`` is derived; a job record adds
        ``job_id`` and ``cell``)."""
        return cls(**{k: raw[k] for k in cls.__dataclass_fields__ if k in raw})


@dataclass
class ExperimentResult:
    """A full campaign: every iteration of every configured server."""

    config: dict
    iterations: list[IterationResult] = field(default_factory=list)

    def for_server(self, server: str) -> list[IterationResult]:
        return [it for it in self.iterations if it.server == server]

    def isr_values(self, server: str | None = None) -> list[float]:
        pool = self.iterations if server is None else self.for_server(server)
        return [it.isr for it in pool]

    def pooled_tick_durations(self, server: str | None = None) -> list[float]:
        pool = self.iterations if server is None else self.for_server(server)
        out: list[float] = []
        for it in pool:
            out.extend(it.tick_durations_ms)
        return out

    # -- export (Data Retrieval, Fig. 5 #9) ---------------------------------

    def save_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": self.config,
            "iterations": [it.to_dict() for it in self.iterations],
        }
        path.write_text(json.dumps(payload, indent=2))
        return path
