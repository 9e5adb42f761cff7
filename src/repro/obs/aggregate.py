"""Campaign obs snapshot: per-cell statistics, read from the job records.

The paper reports variability per (workload, server, environment) cell,
and so does a campaign's live view.  :func:`campaign_snapshot` reads
every job's record as it stands (``JobStore.read_record``, which
re-parses a record only when its file changed) and builds, per cell, the
record-shaped telemetry mapping a single-cell snapshot exports, labelled
``cell="…"``:

- the tick and response gauges are :func:`summarize` over the cell's
  concatenated series — the report's statistics, bit for bit;
- ``isr`` is the median of the cell's per-iteration ISRs (Fig. 10 plots
  their spread);
- counters and the Fig. 11 phase totals are sums over the lines present,
  ``entities_peak`` is their maximum and ``entities_last`` the latest
  line's;
- a line keeps its wire flush series only as a summary, so the cell's
  flush p99 is the largest per-iteration p99.

Values are what the records hold at scrape time.  A counter falls only
when ``resume`` restarts a job, whose re-run truncates its record; a
scraper reads that as a counter reset.  Repeated scrapes of one
``JobStore`` compute a cell's statistics again only when a record its
lines come from changed (the file identities ``read_record`` keys its
parse on): an idle scrape summarises nothing.
"""

from __future__ import annotations

from itertools import chain

from repro.mlg.constants import NOTICEABLE_MS, TICK_BUDGET_MS, UNPLAYABLE_MS
from repro.obs.registry import ObsSnapshot
from repro.telemetry.catalog import (
    WIRE_BYTES_IN,
    WIRE_BYTES_OUT,
    WIRE_CONNECTS,
    WIRE_FLUSH_US,
)
from repro.telemetry.summary import summarize

__all__ = ["campaign_meta", "campaign_snapshot"]


def campaign_meta(name: str, provenance: dict | None) -> dict:
    """The ``meta`` a campaign's obs snapshots carry: its name, plus the
    hygiene status and warn count its manifest provenance recorded."""
    meta: dict = {"campaign": name}
    hygiene = (provenance or {}).get("hygiene")
    if hygiene:
        meta["hygiene"] = {
            "status": hygiene.get("status"),
            "warn_count": hygiene.get("warn_count", 0),
        }
    return meta


def _sections(lines: list[dict], name: str) -> list[dict]:
    """The ``name`` section of each line that carries it switched on."""
    found = (line["telemetry"].get(name) for line in lines)
    return [sec for sec in found if sec and sec.get("enabled", True)]


def _series(lines: list[dict], key: str) -> list[float]:
    return list(chain.from_iterable(line[key] for line in lines))


def _cell_telemetry(lines: list[dict]) -> dict:
    """One cell's iteration lines, oldest first, as one record-shaped
    telemetry mapping (the sections a scrape reads)."""
    ticks = [line["telemetry"]["tick"] for line in lines]
    tick_ms = summarize(
        _series(lines, "tick_durations_ms"), {"budget": TICK_BUDGET_MS}
    )
    breakdown: dict[str, float] = {}
    for tick in ticks:
        for bucket, us in tick["breakdown_us"].items():
            breakdown[bucket] = breakdown.get(bucket, 0.0) + us
    telemetry = {
        "tick": {
            "ticks": tick_ms["count"],
            "isr": summarize([tick["isr"] for tick in ticks])["p50"],
            "overloaded_fraction": tick_ms["frac_over_budget"],
            "tick_ms": tick_ms,
            "entities_last": ticks[-1]["entities_last"],
            "entities_peak": max(tick["entities_peak"] for tick in ticks),
            "breakdown_us": breakdown,
        },
        "response_ms": summarize(
            _series(lines, "response_times_ms"),
            {"noticeable": NOTICEABLE_MS, "unplayable": UNPLAYABLE_MS},
        ),
    }
    wires = _sections(lines, "wire")
    if wires:
        telemetry["wire"] = {
            stream: {key: sum(wire[stream][key] for wire in wires)}
            for stream, key in (
                (WIRE_BYTES_IN, "total"),
                (WIRE_BYTES_OUT, "total"),
                (WIRE_CONNECTS, "count"),
            )
        }
        telemetry["wire"][WIRE_FLUSH_US] = {
            "p99": max(wire[WIRE_FLUSH_US]["p99"] for wire in wires)
        }
    traces = _sections(lines, "trace")
    if traces:
        telemetry["trace"] = {
            key: sum(trace[key] for trace in traces)
            for key in ("slow_ticks", "anomaly_count")
        }
    return telemetry


def campaign_snapshot(store, meta: dict | None = None) -> ObsSnapshot:
    """One snapshot of ``store``'s campaign as its records hold it now:
    each cell's metrics under its ``cell`` label, and the unlabelled job
    and iteration counts.  Each cell's statistics are kept in
    ``store.cell_stats`` with the ``(job_id, record identity)`` of the
    records they were read from, and reused while those are unchanged."""
    jobs = store.manifest_jobs()
    cells: dict[str, list[dict]] = {}
    sources: dict[str, list[tuple]] = {}
    observed = iterations = 0
    for job in jobs:
        lines, _ = store.read_record(job.job_id)
        observed += bool(lines)
        iterations += len(lines)
        source = (job.job_id, store.record_identity(job.job_id))
        for line in lines:
            cells.setdefault(line["cell"], []).append(line)
            came_from = sources.setdefault(line["cell"], [])
            if source not in came_from[-1:]:
                came_from.append(source)
    snap = ObsSnapshot(meta)
    for cell, lines in cells.items():
        key = tuple(sources[cell])
        hit = store.cell_stats.get(cell)
        if hit is None or hit[0] != key:
            hit = store.cell_stats[cell] = key, _cell_telemetry(lines)
        snap.export_telemetry(hit[1], cell=cell)
    snap.export("repro_jobs_total", len(jobs))
    snap.export("repro_jobs_observed", observed)
    snap.export("repro_iterations_total", iterations)
    return snap
