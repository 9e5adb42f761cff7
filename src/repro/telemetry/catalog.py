"""The metric catalog: every measured quantity, declared once.

A run's numbers travel one path — bus stream → record line → report
column and live endpoint — and each stop used to keep its own list of
them.  Here a metric is one :class:`Metric` entry that says where the
value sits in a record line and what each reader calls it; the readers
(:func:`repro.reporting.dataset.sidecar_row`, ``METRIC_FIELDS``,
:func:`repro.obs.registry.telemetry_obs_snapshot`, the Prometheus
renderer, :class:`repro.obs.aggregate.CampaignObsAggregate`, ``repro
status`` and ``repro top``) are loops or lookups over :data:`CATALOG`.
Adding a report column that is also scraped is one entry.  This module
imports nothing from the rest of the package, so every layer may read it.

Nothing checks ``TelemetryBus.publish`` against the catalog at run time
(it runs per tick); ``tests/telemetry/test_catalog.py`` runs one cell per
transport and compares the streams on the bus, the keys of the record
line and the names in the scrape body with what is declared here.

Metric → paper mapping (see also the README's Telemetry section):

======================  =============================================
Metric                  Paper figure / table
======================  =============================================
``tick_ms`` quantiles   Fig. 10/12 box plots (p25/p50/p75/p95), exact
                        over the tick series (Fig. 9's time series)
``tick_ms`` CoV,        Fig. 8 / Table 6 variability columns
windowed CoV
``isr``                 Fig. 6/8, Table 6 (Equation 1)
``breakdown_us`` totals Fig. 11 tick-time distribution buckets
``frac_over_budget``    §2.1 overload fraction (>50 ms ticks, Fig. 9
                        annotations)
======================  =============================================
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass

__all__ = [
    "CATALOG",
    "COLUMNS",
    "EXPOSITION",
    "Metric",
    "RESPONSE_MS",
    "TAP_STREAMS",
    "TICK_MS",
    "WIRE_BYTES_IN",
    "WIRE_BYTES_OUT",
    "WIRE_CONNECTS",
    "WIRE_FLUSH_US",
    "WIRE_STREAMS",
    "lookup",
    "read_columns",
    "scraped",
    "top_bucket",
]

#: Bus stream names — what producers pass to ``TelemetryBus.publish``.
#: Tick durations and bot-observed chat-probe response times (the tap):
TICK_MS = "tick_ms"
RESPONSE_MS = "response_ms"
#: Wire-served cells only (``repro serve``): bytes per tick each way,
#: wall time spent encoding + writing a flush, and one sample per
#: accepted connection (the connect-storm counter).
WIRE_BYTES_IN = "wire_bytes_in"
WIRE_BYTES_OUT = "wire_bytes_out"
WIRE_FLUSH_US = "wire_flush_us"
WIRE_CONNECTS = "wire_connects"


@dataclass(frozen=True)
class Metric:
    """One measured quantity and the name each reader knows it by."""

    #: Keys from the record line down to the value; ``None`` for the
    #: counts the campaign parent keeps itself.
    path: tuple[str, ...] | None
    #: Bus stream whose summary holds the value.
    stream: str | None = None
    #: Report-row key, and the table-header label that makes the column
    #: a legal pivot / plot metric (``top_bucket`` is a name, so it has
    #: a column and no header).
    column: str | None = None
    header: str | None = None
    #: Column value from the raw value at ``path``, where they differ.
    derive: Callable | None = None
    #: Exposition name on the live endpoint, its Prometheus type and
    #: help text, and the label key of a family ("" = plain scalar).
    name: str | None = None
    kind: str | None = None
    help: str = ""
    label_key: str = ""
    #: How iterations combine on the campaign endpoint: ``sum``, ``max``,
    #: ``last``, or ``mean`` weighted by ``weight`` — the name of a count
    #: that sits beside the value in the same section of the line, so a
    #: quantile can only be weighted by its own stream's sample count.
    combine: str | None = None
    weight: str | None = None


def top_bucket(buckets: dict | None) -> tuple[str, float, float] | None:
    """``(name, its µs, total µs)`` of the dominant Fig. 11 bucket (ties
    go to the later name), or ``None`` when nothing was priced."""
    buckets = buckets or {}
    total = sum(buckets.values())
    if total <= 0:
        return None
    name, us = max(buckets.items(), key=lambda kv: (kv[1], kv[0]))
    return name, us, total


def _top_name(buckets: dict | None) -> str | None:
    top = top_bucket(buckets)
    return None if top is None else top[0]


def _top_share(buckets: dict | None) -> float | None:
    top = top_bucket(buckets)
    return None if top is None else top[1] / top[2]


_TICK = ("telemetry", "tick")
_TICK_MS = (*_TICK, TICK_MS)
_RESPONSE = ("telemetry", RESPONSE_MS)
_WIRE = ("telemetry", "wire")
_TRACE = ("telemetry", "trace")

#: Sections a record line may lack (inproc cells have no ``wire``,
#: untraced ones no ``trace``): their metrics are scraped only from
#: lines that carry the section, and carry it switched on.
_OPTIONAL_SECTIONS = ("wire", "trace")

#: Every metric, in report-row order (the order of ``report_grid.csv``'s
#: metric columns).  One line per reader: where the value is, what the
#: report calls it, what the endpoint calls it, how a campaign combines it.
CATALOG = (
    Metric(("crashed",), column="crashed", header="crashed", derive=bool),
    Metric(
        (*_TICK, "isr"),
        column="isr", header="instability ratio (Eq. 1)",
        name="repro_isr", kind="gauge",
        help="Instability Ratio (Eq. 1)",
        combine="mean", weight="ticks",
    ),
    Metric(
        (*_TICK, "ticks"),
        column="ticks", header="ticks",
        name="repro_ticks_total", kind="counter",
        help="ticks simulated so far",
        combine="sum",
    ),
    # A campaign's quantiles and CoV are the sample-weighted mean of its
    # iterations' (a pooled quantile is not a function of the summaries);
    # its mean so weighted and its maximum are exact.
    Metric(
        (*_TICK_MS, "mean"), TICK_MS,
        column="tick_mean_ms", header="mean tick (ms)",
        name="repro_tick_ms_mean", kind="gauge",
        help="mean tick duration (ms)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_TICK_MS, "p50"), TICK_MS,
        column="tick_p50_ms", header="p50 tick (ms)",
        name="repro_tick_ms_p50", kind="gauge",
        help="p50 tick duration (ms)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_TICK_MS, "p95"), TICK_MS,
        column="tick_p95_ms", header="p95 tick (ms)",
        name="repro_tick_ms_p95", kind="gauge",
        help="p95 tick duration (ms)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_TICK_MS, "p99"), TICK_MS,
        column="tick_p99_ms", header="p99 tick (ms)",
        name="repro_tick_ms_p99", kind="gauge",
        help="p99 tick duration (ms)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_TICK_MS, "max"), TICK_MS,
        column="tick_max_ms", header="max tick (ms)",
        name="repro_tick_ms_max", kind="gauge",
        help="max tick duration (ms)",
        combine="max",
    ),
    Metric(
        (*_TICK_MS, "cov"), TICK_MS,
        column="tick_cov", header="tick CoV",
        name="repro_tick_cov", kind="gauge",
        help="tick-duration coefficient of variation",
        combine="mean", weight="count",
    ),
    Metric(
        (*_TICK, "overloaded_fraction"),
        column="overloaded_fraction", header="ticks over budget",
        name="repro_overloaded_fraction", kind="gauge",
        help="fraction of ticks over the 50 ms budget",
        combine="mean", weight="ticks",
    ),
    Metric(
        (*_TICK, "entities_last"),
        name="repro_entities", kind="gauge",
        help="live entities at the last observed tick",
        combine="last",
    ),
    Metric(
        (*_TICK, "entities_peak"),
        column="entities_peak", header="peak entities",
        name="repro_entities_peak", kind="gauge",
        help="peak live-entity population",
        combine="max",
    ),
    Metric(
        (*_RESPONSE, "count"), RESPONSE_MS,
        name="repro_response_samples_total", kind="counter",
        help="client response samples observed",
        combine="sum",
    ),
    Metric(
        (*_RESPONSE, "p50"), RESPONSE_MS,
        column="response_p50_ms", header="p50 response (ms)",
        name="repro_response_ms_p50", kind="gauge",
        help="p50 client response time (ms)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_RESPONSE, "p99"), RESPONSE_MS,
        column="response_p99_ms", header="p99 response (ms)",
        name="repro_response_ms_p99", kind="gauge",
        help="p99 client response time (ms)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_TICK, "windows", "steady"),
        column="steady", header="reached steady state",
    ),
    Metric(
        (*_TICK, "windows", "warmup_samples"),
        column="warmup_samples", header="warmup ticks",
    ),
    Metric(
        (*_TRACE, "slow_ticks"),
        column="slow_ticks", header="slow ticks",
        name="repro_slow_ticks_total", kind="counter",
        help="ticks slower than the flight-recorder cut",
        combine="sum",
    ),
    Metric(
        (*_TRACE, "anomaly_count"),
        column="anomaly_count", header="anomaly dumps",
        name="repro_trace_anomalies_total", kind="counter",
        help="slow-tick flight-recorder dumps",
        combine="sum",
    ),
    # The tap's cumulative per-bucket totals, three ways: the family the
    # endpoint exports, and the dominant bucket with its share — the
    # quickest "what is this server spending its ticks on" signal.
    Metric(
        (*_TICK, "breakdown_us"),
        name="repro_phase_us_total", kind="counter", label_key="phase",
        help="simulated microseconds per Fig. 11 work bucket",
        combine="sum",
    ),
    Metric((*_TICK, "breakdown_us"), column="top_bucket", derive=_top_name),
    Metric(
        (*_TICK, "breakdown_us"),
        column="top_bucket_share", header="top-bucket share",
        derive=_top_share,
    ),
    Metric(
        (*_WIRE, WIRE_BYTES_IN, "total"), WIRE_BYTES_IN,
        column="wire_bytes_in", header="wire bytes in",
        name="repro_wire_bytes_in_total", kind="counter",
        help="bytes received on the wire",
        combine="sum",
    ),
    Metric(
        (*_WIRE, WIRE_BYTES_OUT, "total"), WIRE_BYTES_OUT,
        column="wire_bytes_out", header="wire bytes out",
        name="repro_wire_bytes_out_total", kind="counter",
        help="bytes flushed to the wire",
        combine="sum",
    ),
    Metric(
        (*_WIRE, WIRE_FLUSH_US, "p99"), WIRE_FLUSH_US,
        column="wire_flush_p99_us", header="p99 wire flush (µs)",
        name="repro_wire_flush_us_p99", kind="gauge",
        help="p99 wire flush wall time (µs)",
        combine="mean", weight="count",
    ),
    Metric(
        (*_WIRE, WIRE_CONNECTS, "count"), WIRE_CONNECTS,
        column="wire_connects", header="wire connects",
        name="repro_wire_connects_total", kind="counter",
        help="client connections accepted",
        combine="sum",
    ),
    # Kept by the campaign parent as it folds, not read from a line.
    Metric(
        None, name="repro_jobs_total", kind="gauge",
        help="planned campaign jobs",
    ),
    Metric(
        None, name="repro_jobs_observed", kind="gauge",
        help="jobs that have streamed telemetry",
    ),
    Metric(
        None, name="repro_iterations_total", kind="counter",
        help="completed campaign iterations",
    ),
)

#: Report column → entry, in row order.
COLUMNS = {m.column: m for m in CATALOG if m.column is not None}
#: Exposition name → entry.
EXPOSITION = {m.name: m for m in CATALOG if m.name is not None}


def _streams(wire: bool) -> tuple[str, ...]:
    names = (
        m.stream
        for m in CATALOG
        if m.stream is not None and (m.path[:2] == _WIRE) == wire
    )
    return tuple(dict.fromkeys(names))


#: The bus streams every cell publishes (the tap's), and the ones only a
#: cell served over TCP adds (the wire front end's), in catalog order.
TAP_STREAMS = _streams(wire=False)
WIRE_STREAMS = _streams(wire=True)


def lookup(line: dict, path: tuple[str, ...]):
    """The value at ``path`` in a record line, ``None`` where the line
    does not reach that far."""
    node = line
    for key in path:
        if not node:
            return None
        node = node.get(key)
    return node


def read_columns(line: dict) -> dict:
    """Every report column of one record line, in row order."""
    row = {}
    for column, metric in COLUMNS.items():
        value = lookup(line, metric.path)
        row[column] = metric.derive(value) if metric.derive else value
    return row


def scraped(line: dict) -> Iterator[tuple[Metric, object]]:
    """The exposition metrics one record line carries, each with its
    raw value (``None`` where the line lacks it)."""
    telemetry = line.get("telemetry") or {}
    for metric in EXPOSITION.values():
        if metric.path is None:
            continue
        section = metric.path[1]
        if section in _OPTIONAL_SECTIONS:
            found = telemetry.get(section)
            if not found or not found.get("enabled", True):
                continue
        yield metric, lookup(line, metric.path)
