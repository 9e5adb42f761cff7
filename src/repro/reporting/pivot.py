"""Pivot tables over report rows (benchalot-style ``output.pivots``).

A pivot groups the per-iteration report rows by row axes x column axes
and aggregates one metric per group.  The result is a plain
:class:`PivotTable` that renders through the shared
:mod:`repro.reporting.text` code path (ASCII + CSV) and to an HTML
``<table>`` — every surface shows the same numbers because they all
read the same cells.

Everything is deterministic: groups sort by their key tuples, floats
format with fixed decimals, and missing cells render as ``-``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from repro.reporting.spec import PivotSpec
from repro.reporting.text import write_csv_rows
from repro.telemetry.summary import summarize, total

__all__ = ["PivotTable", "aggregate", "build_pivot"]


#: Each aggregate's key in a :func:`~repro.telemetry.summary.summarize`
#: summary (``sum`` is :func:`~repro.telemetry.summary.total`).
_SUMMARY_KEYS = {
    "mean": "mean",
    "median": "p50",
    "min": "min",
    "max": "max",
    "std": "std",
    "count": "count",
}


def aggregate(agg: str, values: Sequence[float]) -> float:
    """Apply one named aggregate to a non-empty value list."""
    if agg == "sum":
        return total(values)
    if agg not in _SUMMARY_KEYS:
        raise ValueError(f"unknown aggregate {agg!r}")
    return float(summarize(values)[_SUMMARY_KEYS[agg]])


def _coerce(value) -> float | None:
    """Metric value -> float (bools count as 0/1; None/NaN dropped)."""
    if value is None:
        return None
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    if math.isnan(number):
        return None
    return number


def _axis_key(row: dict, axes: Sequence[str]) -> tuple:
    return tuple(row.get(axis) for axis in axes)


def _key_label(key: tuple) -> str:
    return " / ".join(_cell_text(part) for part in key) or "all"


def _cell_text(value) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


class PivotTable:
    """A rendered-ready pivot: sorted row/column keys and cell values."""

    def __init__(self, spec: PivotSpec) -> None:
        self.spec = spec
        self.row_keys: list[tuple] = []
        self.col_keys: list[tuple] = []
        self.cells: dict[tuple, dict[tuple, float]] = {}
        #: Rows whose metric was absent from every grouped line.
        self.dropped_rows = 0

    @property
    def title(self) -> str:
        return self.spec.label()

    def _formatted(self, value: float | None) -> str:
        if value is None:
            return "-"
        return f"{value:.{self.spec.decimals}f}"

    # -- renderers ----------------------------------------------------------

    def headers(self) -> list[str]:
        row_axes = " / ".join(self.spec.rows) or "all"
        return [row_axes] + [_key_label(key) for key in self.col_keys]

    def rows(self) -> list[list[str]]:
        out = []
        for row_key in self.row_keys:
            line = [_key_label(row_key)]
            for col_key in self.col_keys:
                line.append(
                    self._formatted(self.cells[row_key].get(col_key))
                )
            out.append(line)
        return out

    def write_csv(self, path) -> None:
        write_csv_rows(path, self.headers(), self.rows())

    def to_html(self) -> str:
        from repro.reporting.html import escape

        parts = ["<table>", "<thead><tr>"]
        parts.extend(
            f"<th>{escape(header)}</th>" for header in self.headers()
        )
        parts.append("</tr></thead>")
        parts.append("<tbody>")
        for line in self.rows():
            parts.append("<tr>")
            parts.append(f"<th>{escape(line[0])}</th>")
            parts.extend(
                f'<td class="num">{escape(cell)}</td>' for cell in line[1:]
            )
            parts.append("</tr>")
        parts.append("</tbody></table>")
        return "".join(parts)


def build_pivot(rows: Iterable[dict], spec: PivotSpec) -> PivotTable:
    """Group ``rows`` by ``spec.rows`` x ``spec.cols`` and aggregate."""
    groups: dict[tuple, dict[tuple, list[float]]] = {}
    table = PivotTable(spec)
    for row in rows:
        value = _coerce(row.get(spec.value))
        if value is None:
            table.dropped_rows += 1
            continue
        row_key = _axis_key(row, spec.rows)
        col_key = _axis_key(row, spec.cols)
        groups.setdefault(row_key, {}).setdefault(col_key, []).append(value)
    table.row_keys = sorted(groups, key=lambda key: tuple(map(str, key)))
    col_keys = {
        col_key for by_col in groups.values() for col_key in by_col
    }
    table.col_keys = sorted(col_keys, key=lambda key: tuple(map(str, key)))
    for row_key, by_col in groups.items():
        table.cells[row_key] = {
            col_key: aggregate(spec.agg, values)
            for col_key, values in by_col.items()
        }
    return table
