"""Data Retrieval component (Fig. 5, #9): aggregate and export results.

Moves collected data "from the worker nodes to the user's local machine"
— here: from :class:`ExperimentResult` objects to per-iteration CSV files
plus an aggregated summary table, the pre-processing step the paper's
pipeline performs before visualization.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.results import ExperimentResult, IterationResult
from repro.reporting.text import write_csv_rows, write_csv_series

__all__ = ["retrieve", "summary_rows"]

_SUMMARY_HEADERS = (
    "server",
    "workload",
    "environment",
    "iteration",
    "isr",
    "tick_mean_ms",
    "tick_median_ms",
    "tick_p95_ms",
    "tick_max_ms",
    "tick_iqr_ms",
    "rt_mean_ms",
    "rt_p95_ms",
    "rt_max_ms",
    "crashed",
    "throttled_ticks",
    "scale",
    "bots",
    "behavior",
)

#: Fields (besides server/iteration) that can distinguish two iterations
#: of a merged campaign result.
_CELL_FIELDS = ("workload", "environment", "scale", "n_bots", "behavior")


def _series_subdir(result: ExperimentResult):
    """Per-iteration series directory, unique within ``result``.

    A single-config result keeps the flat ``<server>/`` layout; a merged
    campaign (where several cells share a server) nests one directory per
    distinct cell so series files cannot clobber each other.  Only the
    fields that actually vary go into the directory name.
    """
    varying = [
        name
        for name in _CELL_FIELDS
        if len({getattr(it, name) for it in result.iterations}) > 1
    ]

    def subdir(it: IterationResult) -> str:
        if not varying:
            return it.server
        label = "_".join(
            f"{getattr(it, name):g}"
            if isinstance(getattr(it, name), float)
            else str(getattr(it, name))
            for name in varying
        )
        return f"{it.server}/{label}"

    return subdir


def summary_rows(result: ExperimentResult) -> list[list[object]]:
    """One summary row per iteration (the aggregation step)."""
    rows: list[list[object]] = []
    for it in result.iterations:
        tick = it.tick_stats()
        response = it.response_stats()
        rows.append(
            [
                it.server,
                it.workload,
                it.environment,
                it.iteration,
                round(it.isr, 6),
                round(tick["mean"], 3),
                round(tick["p50"], 3),
                round(tick["p95"], 3),
                round(tick["max"], 3),
                round(tick["p75"] - tick["p25"], 3),
                round(response["mean"], 3) if response else "",
                round(response["p95"], 3) if response else "",
                round(response["max"], 3) if response else "",
                it.crashed,
                it.throttled_ticks,
                it.scale,
                it.n_bots,
                it.behavior,
            ]
        )
    return rows


def retrieve(result: ExperimentResult, output_dir: str | Path) -> Path:
    """Export everything a campaign measured into ``output_dir``.

    Layout::

        output_dir/
          summary.csv                      one row per iteration
          results.json                     full FAIR export
          <server>/iter<k>_ticks.csv       tick-duration series
          <server>/iter<k>_responses.csv   response-time series

    For a merged campaign result, where one server appears in several
    matrix cells, the series files nest one level deeper —
    ``<server>/<cell>/iter<k>_*.csv`` with ``<cell>`` naming the matrix
    fields that vary — so cells cannot overwrite each other's series.
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    write_csv_rows(
        output_dir / "summary.csv", _SUMMARY_HEADERS, summary_rows(result)
    )
    result.save_json(output_dir / "results.json")
    subdir = _series_subdir(result)
    for it in result.iterations:
        series_dir = output_dir / subdir(it)
        write_csv_series(
            series_dir / f"iter{it.iteration}_ticks.csv",
            "tick_duration_ms",
            it.tick_durations_ms,
        )
        # A run whose bots completed no probe has no response series.
        if it.response_times_ms:
            write_csv_series(
                series_dir / f"iter{it.iteration}_responses.csv",
                "response_time_ms",
                it.response_times_ms,
            )
    return output_dir
