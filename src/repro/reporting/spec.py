"""Declarative report configuration: the ``output:``/``system:`` sections.

A campaign spec may carry two presentation-layer sections (benchalot
style — see SNIPPETS.md):

``output:`` declares what the report renders — which pivot tables and
which faceted plots, over which axes and metrics::

    output:
      html: report.html
      pivots:
        - title: median tick p99 (ms)
          rows: [server]
          cols: [workload]
          value: tick_p99_ms
          agg: median
          csv: p99_pivot.csv
      plots:
        - kind: matrix
          metric: tick_p50_ms
          x: scale
          series: server
          facet: workload
        - kind: warmup
        - kind: anomalies

``system:`` declares the measurement-hygiene conditions the campaign
*requests* from the host (CPU governor, SMT, ASLR, frequency boost, CPU
isolation, load ceiling).  The executor probes the host against these
requests at run time (:mod:`repro.reporting.hygiene`) and stamps the
findings into the campaign manifest's provenance, so every report can
lead with the conditions its numbers were measured under.

Both sections are *presentation and provenance* — they never change what
gets simulated, so ``output:`` may be edited after a campaign ran and
re-rendered with ``repro report --update-output``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.catalog import COLUMNS

__all__ = [
    "AGGREGATES",
    "AXIS_FIELDS",
    "METRIC_FIELDS",
    "OutputSpec",
    "PivotSpec",
    "PlotSpec",
    "SYSTEM_FIELDS",
    "default_output",
    "validate_output",
    "validate_system",
]

#: Cell-identity fields every report row carries (record ``cell`` key
#: order, then iteration identity).
AXIS_FIELDS = (
    "server",
    "workload",
    "environment",
    "scale",
    "n_bots",
    "behavior",
    "iteration",
)

#: Metrics derivable from a job record's iteration line alone (no
#: re-simulation): the catalog's report columns that carry a header.
#: Values are short human labels for table headers.
METRIC_FIELDS = {
    column: metric.header
    for column, metric in COLUMNS.items()
    if metric.header is not None
}

#: Supported pivot aggregates.
AGGREGATES = ("mean", "median", "min", "max", "std", "sum", "count")

#: Known plot kinds (``matrix`` is parameterized; the rest are fixed
#: panels over the records).
PLOT_KINDS = ("matrix", "warmup", "anomalies")

#: ``system:`` request fields and a one-line meaning each.
SYSTEM_FIELDS = {
    "governor": "required CPU frequency governor (e.g. 'performance')",
    "disable_smt": "require SMT/hyper-threading off",
    "disable_aslr": "require address-space layout randomization off",
    "disable_boost": "require frequency boost/turbo off",
    "isolate_cpus": "CPU list the campaign must be pinned to",
    "max_load_1m": "1-minute load-average ceiling at campaign start",
}


@dataclass(frozen=True)
class PivotSpec:
    """One pivot table: row axes x column axes, one aggregated metric."""

    value: str
    rows: tuple[str, ...] = ("server",)
    cols: tuple[str, ...] = ("workload",)
    agg: str = "mean"
    title: str = ""
    decimals: int = 3
    csv: str | None = None

    def label(self) -> str:
        return self.title or f"{self.agg} {self.value} by " + " x ".join(
            (*self.rows, *self.cols)
        )


@dataclass(frozen=True)
class PlotSpec:
    """One report figure.  ``matrix`` plots aggregate a metric over the
    campaign matrix (x/series/facet are axis fields); the other kinds
    are fixed panels and ignore the axis fields."""

    kind: str = "matrix"
    metric: str = "tick_p99_ms"
    x: str = "iteration"
    series: str = "server"
    facet: str = "workload"
    agg: str = "mean"
    title: str = ""

    def label(self) -> str:
        if self.title:
            return self.title
        if self.kind != "matrix":
            return {
                "warmup": "Warmup -> steady state (windowed tick CoV)",
                "anomalies": "Slow-tick anomalies",
            }[self.kind]
        return (
            f"{self.agg} {self.metric} vs {self.x}, one line per "
            f"{self.series}, faceted by {self.facet}"
        )


@dataclass
class OutputSpec:
    """The parsed ``output:`` section: what the report renders."""

    html: str = "report.html"
    pivots: list[PivotSpec] = field(default_factory=list)
    plots: list[PlotSpec] = field(default_factory=list)
    #: Extra grid CSV next to the report (full per-iteration rows).
    grid_csv: str | None = "report_grid.csv"

    @classmethod
    def from_dict(cls, data: dict | None) -> "OutputSpec":
        """Parse and validate an ``output:`` mapping (``None``/empty
        mapping -> the default report)."""
        if not data:
            return default_output()
        validate_output(data)
        spec = cls(html=data.get("html", "report.html"))
        spec.grid_csv = data.get("grid_csv", "report_grid.csv")
        for raw in data.get("pivots", ()):
            spec.pivots.append(
                PivotSpec(
                    value=raw["value"],
                    rows=tuple(raw.get("rows", ("server",))),
                    cols=tuple(raw.get("cols", ("workload",))),
                    agg=raw.get("agg", "mean"),
                    title=raw.get("title", ""),
                    decimals=int(raw.get("decimals", 3)),
                    csv=raw.get("csv"),
                )
            )
        for raw in data.get("plots", ()):
            spec.plots.append(
                PlotSpec(
                    kind=raw.get("kind", "matrix"),
                    metric=raw.get("metric", "tick_p99_ms"),
                    x=raw.get("x", "iteration"),
                    series=raw.get("series", "server"),
                    facet=raw.get("facet", "workload"),
                    agg=raw.get("agg", "mean"),
                    title=raw.get("title", ""),
                )
            )
        if not spec.pivots and not spec.plots:
            base = default_output()
            spec.pivots, spec.plots = base.pivots, base.plots
        return spec


def default_output() -> OutputSpec:
    """The report rendered when a spec has no ``output:`` section."""
    return OutputSpec(
        pivots=[
            PivotSpec(value="isr", agg="mean", title="mean ISR"),
            PivotSpec(
                value="tick_p99_ms", agg="mean", title="mean p99 tick (ms)"
            ),
            PivotSpec(
                value="tick_cov", agg="mean", title="mean tick CoV"
            ),
        ],
        plots=[
            PlotSpec(metric="tick_p50_ms", x="iteration"),
            PlotSpec(metric="tick_p99_ms", x="iteration"),
            PlotSpec(metric="tick_cov", x="iteration"),
            PlotSpec(kind="warmup"),
            PlotSpec(kind="anomalies"),
        ],
    )


def _require_keys(section: str, raw: dict, allowed: set[str]) -> None:
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a mapping: {raw!r}")
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(
            f"{section} has unknown keys {sorted(unknown)}; "
            f"known: {sorted(allowed)}"
        )


def _check_axes(section: str, names, what: str) -> None:
    for name in names:
        if name not in AXIS_FIELDS:
            raise ValueError(
                f"{section}: unknown {what} axis {name!r}; "
                f"known: {list(AXIS_FIELDS)}"
            )


def validate_output(data: dict) -> None:
    """Raise ``ValueError`` on a malformed ``output:`` section."""
    _require_keys(
        "output", data, {"html", "grid_csv", "pivots", "plots"}
    )
    for index, raw in enumerate(data.get("pivots", ())):
        section = f"output.pivots[{index}]"
        _require_keys(
            section,
            raw,
            {"title", "rows", "cols", "value", "agg", "decimals", "csv"},
        )
        if "value" not in raw:
            raise ValueError(f"{section} must name a 'value' metric")
        if raw["value"] not in METRIC_FIELDS:
            raise ValueError(
                f"{section}: unknown metric {raw['value']!r}; "
                f"known: {sorted(METRIC_FIELDS)}"
            )
        _check_axes(section, raw.get("rows", ()), "row")
        _check_axes(section, raw.get("cols", ()), "column")
        agg = raw.get("agg", "mean")
        if agg not in AGGREGATES:
            raise ValueError(
                f"{section}: unknown aggregate {agg!r}; "
                f"known: {list(AGGREGATES)}"
            )
    for index, raw in enumerate(data.get("plots", ())):
        section = f"output.plots[{index}]"
        _require_keys(
            section,
            raw,
            {"kind", "metric", "x", "series", "facet", "agg", "title"},
        )
        kind = raw.get("kind", "matrix")
        if kind not in PLOT_KINDS:
            raise ValueError(
                f"{section}: unknown plot kind {kind!r}; "
                f"known: {list(PLOT_KINDS)}"
            )
        if kind != "matrix":
            continue
        metric = raw.get("metric", "tick_p99_ms")
        if metric not in METRIC_FIELDS:
            raise ValueError(
                f"{section}: unknown metric {metric!r}; "
                f"known: {sorted(METRIC_FIELDS)}"
            )
        _check_axes(
            section,
            (
                raw.get("x", "iteration"),
                raw.get("series", "server"),
                raw.get("facet", "workload"),
            ),
            "plot",
        )
        agg = raw.get("agg", "mean")
        if agg not in AGGREGATES:
            raise ValueError(
                f"{section}: unknown aggregate {agg!r}; "
                f"known: {list(AGGREGATES)}"
            )


def validate_system(data: dict) -> None:
    """Raise ``ValueError`` on a malformed ``system:`` section."""
    _require_keys("system", data, set(SYSTEM_FIELDS))
    for key in ("disable_smt", "disable_aslr", "disable_boost"):
        if key in data and not isinstance(data[key], bool):
            raise ValueError(f"system.{key} must be a boolean")
    if "governor" in data and not isinstance(data["governor"], str):
        raise ValueError("system.governor must be a string")
    if "isolate_cpus" in data:
        cpus = data["isolate_cpus"]
        if not isinstance(cpus, (list, tuple)) or not all(
            isinstance(cpu, int) and cpu >= 0 for cpu in cpus
        ):
            raise ValueError(
                "system.isolate_cpus must be a list of CPU indices"
            )
    if "max_load_1m" in data:
        load = data["max_load_1m"]
        if not isinstance(load, (int, float)) or load <= 0:
            raise ValueError("system.max_load_1m must be a positive number")
