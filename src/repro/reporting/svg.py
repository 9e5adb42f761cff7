"""Deterministic inline-SVG figures for the campaign report.

Small, dependency-free chart toolkit plus the three report panels:

- faceted matrix plots (``output.plots: kind: matrix``) — one small
  multiple per facet value, one line per series value, shared y scale;
- the warmup -> steady panel: windowed tick-CoV per job with the
  warmup -> steady change point marked;
- the anomaly strip: slow-tick flight-recorder dumps on a per-job tick
  timeline, autosave-dominated ticks distinguished.

Everything renders to strings with fixed-precision numbers and sorted
iteration order, so the same inputs always produce the same bytes.
Colors are CSS custom properties (``var(--series-1)`` ...) supplied by
the report stylesheet, which keeps the SVG readable in both light and
dark mode from a single render.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.reporting.pivot import aggregate, _coerce
from repro.reporting.spec import PlotSpec

__all__ = [
    "anomaly_strip",
    "matrix_plot",
    "warmup_panel",
]

#: Categorical series slots (fixed assignment order, never cycled).
N_SERIES_SLOTS = 8

#: Panel geometry (px).
PANEL_W = 300
PANEL_H = 190
MARGIN_L = 52
MARGIN_B = 34
MARGIN_T = 26
MARGIN_R = 12
PANELS_PER_ROW = 3


def _esc(text: object) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _num(value: float) -> str:
    """Fixed-precision coordinate: deterministic and compact."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def _label_num(value: float) -> str:
    """Adaptive tick-label precision."""
    magnitude = abs(value)
    if magnitude >= 100:
        return f"{value:.0f}"
    if magnitude >= 1:
        return f"{value:.1f}"
    return f"{value:.3f}"


def _axis_sorted(values) -> list:
    """Axis values in deterministic order (numeric when possible)."""
    try:
        return sorted(values, key=lambda v: (0, float(v)))
    except (TypeError, ValueError):
        return sorted(values, key=lambda v: (1, str(v)))


class _Svg:
    """An append-only SVG document builder."""

    def __init__(self, width: int, height: int, title: str) -> None:
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg class="chart" role="img" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'aria-label="{_esc(title)}">'
        ]

    def line(self, x1, y1, x2, y2, cls: str) -> None:
        self.parts.append(
            f'<line class="{cls}" x1="{_num(x1)}" y1="{_num(y1)}" '
            f'x2="{_num(x2)}" y2="{_num(y2)}"/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], cls: str) -> None:
        joined = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
        self.parts.append(
            f'<polyline class="{cls}" points="{joined}"/>'
        )

    def circle(self, x, y, r, cls: str, tooltip: str | None = None) -> None:
        body = (
            f'<circle class="{cls}" cx="{_num(x)}" cy="{_num(y)}" '
            f'r="{_num(r)}"'
        )
        if tooltip is None:
            self.parts.append(body + "/>")
        else:
            self.parts.append(
                body + f"><title>{_esc(tooltip)}</title></circle>"
            )

    def rect(
        self, x, y, w, h, cls: str, tooltip: str | None = None, rx=0
    ) -> None:
        body = (
            f'<rect class="{cls}" x="{_num(x)}" y="{_num(y)}" '
            f'width="{_num(w)}" height="{_num(h)}" rx="{_num(rx)}"'
        )
        if tooltip is None:
            self.parts.append(body + "/>")
        else:
            self.parts.append(body + f"><title>{_esc(tooltip)}</title></rect>")

    def text(self, x, y, content: str, cls: str, anchor: str = "start") -> None:
        self.parts.append(
            f'<text class="{cls}" x="{_num(x)}" y="{_num(y)}" '
            f'text-anchor="{anchor}">{_esc(content)}</text>'
        )

    def render(self) -> str:
        return "".join(self.parts) + "</svg>"


def _y_scale(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo

    def scale(value: float, top: float, height: float) -> float:
        return top + height - (value - lo) / span * height

    return scale, lo, hi


def _series_legend(names: Sequence[str]) -> str:
    items = []
    for slot, name in enumerate(names, start=1):
        items.append(
            f'<span class="legend-item"><span class="swatch series-bg-'
            f'{slot}"></span>{_esc(name)}</span>'
        )
    return f'<div class="legend">{"".join(items)}</div>'


def matrix_plot(rows: list[dict], plot: PlotSpec) -> str:
    """Faceted small multiples of one aggregated metric.

    One panel per ``plot.facet`` value, one line (2px, 4px markers) per
    ``plot.series`` value, shared y scale across panels so facets stay
    comparable.  Returns an HTML fragment: legend + inline SVG.
    """
    # (facet, series, x) -> values
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        value = _coerce(row.get(plot.metric))
        if value is None:
            continue
        key = (row.get(plot.facet), row.get(plot.series), row.get(plot.x))
        groups.setdefault(key, []).append(value)
    if not groups:
        return '<p class="empty">no data for this plot</p>'
    points = {key: aggregate(plot.agg, vals) for key, vals in groups.items()}
    facets = _axis_sorted({key[0] for key in points})
    series = _axis_sorted({key[1] for key in points})
    xs = _axis_sorted({key[2] for key in points})
    folded = 0
    if len(series) > N_SERIES_SLOTS:
        folded = len(series) - N_SERIES_SLOTS
        series = series[:N_SERIES_SLOTS]
    values = list(points.values())
    scale, lo, hi = _y_scale(0.0, max(values) * 1.05)

    n_cols = min(PANELS_PER_ROW, len(facets))
    n_rows = (len(facets) + n_cols - 1) // n_cols
    svg = _Svg(n_cols * PANEL_W, n_rows * PANEL_H, plot.label())
    plot_w = PANEL_W - MARGIN_L - MARGIN_R
    plot_h = PANEL_H - MARGIN_T - MARGIN_B

    def x_pos(origin: float, index: int) -> float:
        if len(xs) == 1:
            return origin + plot_w / 2.0
        return origin + index * plot_w / (len(xs) - 1)

    for f_index, facet in enumerate(facets):
        px = (f_index % n_cols) * PANEL_W
        py = (f_index // n_cols) * PANEL_H
        left, top = px + MARGIN_L, py + MARGIN_T
        svg.text(
            px + PANEL_W / 2.0,
            py + 14,
            f"{plot.facet} = {facet}",
            "facet-title",
            anchor="middle",
        )
        # Recessive grid: three horizontal guides + baseline.
        for frac in (0.0, 0.5, 1.0):
            gy = top + plot_h * (1.0 - frac)
            svg.line(left, gy, left + plot_w, gy, "grid")
            svg.text(
                left - 4,
                gy + 3,
                _label_num(lo + (hi - lo) * frac),
                "tick-label",
                anchor="end",
            )
        for x_index, x_value in enumerate(xs):
            svg.text(
                x_pos(left, x_index),
                top + plot_h + 14,
                _label_num(x_value)
                if isinstance(x_value, (int, float))
                else str(x_value),
                "tick-label",
                anchor="middle",
            )
        svg.text(
            left + plot_w / 2.0,
            top + plot_h + 28,
            plot.x,
            "axis-label",
            anchor="middle",
        )
        for slot, series_value in enumerate(series, start=1):
            line_points = []
            for x_index, x_value in enumerate(xs):
                value = points.get((facet, series_value, x_value))
                if value is None:
                    continue
                line_points.append(
                    (x_pos(left, x_index), scale(value, top, plot_h), value,
                     x_value)
                )
            if len(line_points) > 1:
                svg.polyline(
                    [(x, y) for x, y, _, _ in line_points],
                    f"series-line series-{slot}",
                )
            for x, y, value, x_value in line_points:
                svg.circle(
                    x,
                    y,
                    4,
                    f"series-dot series-{slot}",
                    tooltip=(
                        f"{plot.series}={series_value} {plot.x}={x_value}: "
                        f"{plot.agg} {plot.metric} = {value:.4f}"
                    ),
                )
    note = (
        f'<p class="note">{folded} series beyond the first '
        f"{N_SERIES_SLOTS} are not drawn</p>"
        if folded
        else ""
    )
    return _series_legend([str(s) for s in series]) + svg.render() + note


#: Cap on per-job strips in the fixed panels; beyond it the report notes
#: what was dropped rather than silently truncating.
MAX_JOB_STRIPS = 12


def warmup_panel(jobs) -> str:
    """Windowed tick CoV per job with the warmup -> steady change-point.

    One mini-panel per job (latest iteration's window snapshot): the
    recent per-window CoV curve, a marker at the detected steady-state
    window, and the warmup sample count — PR 2's change-point detection
    made visible.
    """
    views = [view for view in jobs if view.latest_windows.get("recent_covs")]
    if not views:
        return '<p class="empty">no windowed telemetry in the sidecars</p>'
    dropped = max(0, len(views) - MAX_JOB_STRIPS)
    views = views[:MAX_JOB_STRIPS]
    covs_all = [
        cov for view in views for cov in view.latest_windows["recent_covs"]
    ]
    scale, lo, hi = _y_scale(0.0, max(covs_all) * 1.1)
    row_h = 64
    width = 660
    left, plot_w = 230, width - 230 - 90
    svg = _Svg(width, row_h * len(views), "warmup to steady state")
    for index, view in enumerate(views):
        windows = view.latest_windows
        covs = windows["recent_covs"]
        top = index * row_h + 12
        plot_h = row_h - 24
        svg.text(6, top + plot_h / 2 + 3, view.cell_label, "strip-label")
        svg.line(left, top + plot_h, left + plot_w, top + plot_h, "grid")
        n_windows = windows.get("n_windows", len(covs))
        first_window = n_windows - len(covs)

        def wx(window_index: int) -> float:
            if len(covs) == 1:
                return left + plot_w / 2.0
            return left + (window_index / (len(covs) - 1)) * plot_w

        line_points = [
            (wx(i), scale(cov, top, plot_h)) for i, cov in enumerate(covs)
        ]
        if len(line_points) > 1:
            svg.polyline(line_points, "series-line series-1")
        for i, cov in enumerate(covs):
            svg.circle(
                line_points[i][0],
                line_points[i][1],
                3,
                "series-dot series-1",
                tooltip=f"window {first_window + i}: CoV {cov:.4f}",
            )
        steady_since = windows.get("steady_since_window")
        if windows.get("steady") and steady_since is not None:
            marker_index = steady_since - first_window
            if 0 <= marker_index < len(covs):
                mx = wx(marker_index)
                svg.line(mx, top - 2, mx, top + plot_h, "steady-marker")
            svg.text(
                left + plot_w + 6,
                top + plot_h / 2 + 3,
                f"steady @ w{steady_since} "
                f"({windows.get('warmup_samples', 0)} warmup ticks)",
                "tick-label",
            )
        else:
            svg.text(
                left + plot_w + 6,
                top + plot_h / 2 + 3,
                "still warming up",
                "tick-label",
            )
    note = (
        f'<p class="note">{dropped} more job(s) not shown</p>'
        if dropped
        else ""
    )
    return svg.render() + note


#: Fig. 11 buckets that mark an anomaly as autosave/persistence-driven.
_AUTOSAVE_BUCKETS = frozenset({"Autosave", "Chunk Load"})


def anomaly_strip(jobs) -> str:
    """Slow-tick flight-recorder dumps on per-job tick timelines.

    Each anomaly is a tick whose duration tripped the recorder; marks
    sit at the tick index, height scales with the overrun factor, and
    autosave-dominated ticks (the save-all spike) use the second series
    slot so the two causes separate at a glance.
    """
    views = [view for view in jobs if view.anomalies]
    if not views:
        return (
            '<p class="empty">no slow-tick anomalies recorded '
            "(untraced campaign, or nothing tripped the recorder)</p>"
        )
    dropped = max(0, len(views) - MAX_JOB_STRIPS)
    views = views[:MAX_JOB_STRIPS]
    max_tick = max(
        anomaly.get("tick", 0)
        for view in views
        for anomaly in view.anomalies
    )
    max_factor = max(
        anomaly.get("factor", 1.0)
        for view in views
        for anomaly in view.anomalies
    )
    row_h = 56
    width = 660
    left, plot_w = 230, width - 230 - 20
    svg = _Svg(width, row_h * len(views), "slow-tick anomalies")
    for index, view in enumerate(views):
        top = index * row_h + 10
        strip_h = row_h - 22
        svg.text(6, top + strip_h / 2 + 3, view.cell_label, "strip-label")
        svg.line(left, top + strip_h, left + plot_w, top + strip_h, "grid")
        for anomaly in view.anomalies:
            tick = anomaly.get("tick", 0)
            factor = anomaly.get("factor", 1.0)
            x = left + (tick / max_tick if max_tick else 0.5) * plot_w
            height = max(6.0, (factor / max_factor) * strip_h)
            buckets = anomaly.get("breakdown_us") or {}
            top_bucket = (
                max(buckets.items(), key=lambda kv: (kv[1], kv[0]))[0]
                if buckets
                else "?"
            )
            slot = 2 if top_bucket in _AUTOSAVE_BUCKETS else 1
            svg.rect(
                x - 1.5,
                top + strip_h - height,
                3,
                height,
                f"anomaly-mark series-bgfill-{slot}",
                tooltip=(
                    f"iteration {anomaly.get('iteration', 0)} tick {tick}: "
                    f"{anomaly.get('duration_us', 0) / 1000.0:.1f} ms "
                    f"({factor:.1f}x budget), top bucket {top_bucket}"
                ),
                rx=1.5,
            )
        svg.text(
            left + plot_w,
            top + strip_h + 11,
            f"tick {max_tick}",
            "tick-label",
            anchor="end",
        )
    legend = _series_legend(["slow tick", "autosave/chunk-IO dominated"])
    note = (
        f'<p class="note">{dropped} more job(s) with anomalies '
        "not shown</p>"
        if dropped
        else ""
    )
    return legend + svg.render() + note

