"""Plain-text and CSV renderers shared by every report surface.

This is the single code path for tables, sparklines, box plots, and CSV
files: the CLI (``repro status``/``export``), the benchmark harness, and
the HTML report engine all render through these helpers.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from pathlib import Path

from repro.telemetry.summary import summarize

__all__ = [
    "ascii_boxplot",
    "ascii_timeseries",
    "format_table",
    "write_csv_rows",
    "write_csv_series",
]


def ascii_boxplot(
    labeled_series: list[tuple[str, Sequence[float]]],
    width: int = 60,
    lo: float | None = None,
    hi: float | None = None,
    unit: str = "ms",
) -> str:
    """Render horizontal box plots: the box spans p25 … p75 around the
    median, the whiskers reach the Tukey fences (1.5 IQR beyond the
    quartiles) clamped to the observed min / max, as in the paper's
    figures.

    One line per series: ``label ----===|===---- (median unit)``; the
    default scale spans the whiskers.
    """
    if not labeled_series:
        return "(no data)"
    boxes = []
    for label, values in labeled_series:
        s = summarize(values)
        fence = 1.5 * (s["p75"] - s["p25"])
        low = max(s["min"], s["p25"] - fence)
        high = min(s["max"], s["p75"] + fence)
        boxes.append((label, s, (low, high)))
    lo = lo if lo is not None else min(w[0] for _, _, w in boxes)
    hi = hi if hi is not None else max(w[1] * 1.05 for _, _, w in boxes)
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    label_width = max(len(label) for label, _, _ in boxes)

    def col(value: float) -> int:
        clamped = min(max(value, lo), hi)
        return int((clamped - lo) / span * (width - 1))

    lines = []
    for label, s, (low, high) in boxes:
        row = [" "] * width
        for x in range(col(low), col(high) + 1):
            row[x] = "-"
        for x in range(col(s["p25"]), col(s["p75"]) + 1):
            row[x] = "="
        row[col(s["p50"])] = "|"
        lines.append(
            f"{label:<{label_width}} {''.join(row)} "
            f"(med {s['p50']:.1f} {unit}, p95 {s['p95']:.1f})"
        )
    lines.append(
        f"{'':<{label_width}} scale: {lo:.1f} .. {hi:.1f} {unit}"
    )
    return "\n".join(lines)


_SPARK_CHARS = " .:-=+*#%@"


def ascii_timeseries(
    values: Sequence[float],
    width: int = 80,
    height_label: str = "",
    hi: float | None = None,
) -> str:
    """Downsample a series into a one-line density sparkline."""
    if len(values) == 0:
        return "(no data)"
    hi = hi if hi is not None else max(values)
    if hi <= 0:
        hi = 1.0
    bucket = max(1, len(values) // width)
    cells = []
    for i in range(0, len(values), bucket):
        window = values[i : i + bucket]
        peak = max(window)
        level = min(len(_SPARK_CHARS) - 1, int(peak / hi * (len(_SPARK_CHARS) - 1)))
        cells.append(_SPARK_CHARS[level])
    suffix = f"  (peak {max(values):.1f}{height_label})"
    return "".join(cells) + suffix


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain-text table with padded columns."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def write_csv_series(
    path: str | Path, column_name: str, values: Sequence[float]
) -> Path:
    """Write one series as a two-column (index, value) CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", column_name])
        for i, value in enumerate(values):
            writer.writerow([i, value])
    return path


def write_csv_rows(
    path: str | Path, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> Path:
    """Write arbitrary rows with a header line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(list(row))
    return path
