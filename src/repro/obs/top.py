"""``repro top``: a plain-ANSI live dashboard over the obs plane.

Two targets, one renderer:

- an **endpoint URL** (``http://host:port/metrics`` or ``/metrics.json``)
  — polls the JSON snapshot of a running ``repro serve`` loop or of a
  campaign's ``repro run`` endpoint;
- a **campaign output directory** — builds the same
  :func:`~repro.obs.aggregate.campaign_snapshot` the campaign endpoint
  serves, from the job records as they stand at each poll, so the
  numbers agree with a scrape of the same campaign.

A campaign frame holds one block per cell, then the jobs line; a
single-cell frame (``repro serve``) holds the one block.  No curses:
each frame is one block of text behind an ANSI clear-and-home, so it
works in any terminal, over ssh, and in CI logs (``--once`` skips the
escape codes entirely).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request

from repro.telemetry.catalog import EXPOSITION

__all__ = ["fetch_snapshot", "render_top", "run_top"]

#: ANSI clear screen + cursor home — the whole "TUI".
_CLEAR = "\x1b[2J\x1b[H"

#: How many Fig. 11 phase buckets the dashboard shows.
_TOP_BUCKETS = 5


def fetch_snapshot(url: str, timeout_s: float = 5.0) -> dict:
    """GET the JSON snapshot document from an obs endpoint URL.

    Accepts the ``/metrics`` (Prometheus) form of the URL too and
    rewrites it to ``/metrics.json`` — the dashboard always wants the
    JSON body, which carries the run metadata.
    """
    if url.endswith("/metrics"):
        url = url + ".json"
    elif not url.endswith("/metrics.json"):
        url = url.rstrip("/") + "/metrics.json"
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.loads(response.read().decode("utf-8"))


def _sample(metrics: dict, name: str):
    """What ``metrics`` holds for a catalogued exposition name.  A name
    the catalog does not list is a bug here, not a zero on the screen:
    a rename there fails the first frame."""
    if name not in EXPOSITION:
        raise KeyError(f"repro top reads uncatalogued metric {name!r}")
    return metrics.get(name)


def _metric(metrics: dict, name: str) -> float:
    return float(_sample(metrics, name) or 0.0)


def _family(metrics: dict, name: str) -> dict:
    value = _sample(metrics, name) or {}
    return value if isinstance(value, dict) else {}


def _hygiene_banner(meta: dict) -> str | None:
    hygiene = meta.get("hygiene")
    if not hygiene:
        return None
    status = str(hygiene.get("status", "?"))
    warns = hygiene.get("warn_count", 0)
    if status == "pass":
        return "hygiene: PASS"
    return f"HYGIENE: {status.upper()} ({warns} warning(s))"


def _cell_block(metrics: dict) -> list[str]:
    """The lines one cell's metrics render to; a millisecond statistic
    shows every digit its float holds."""
    lines = [
        f"ticks {_metric(metrics, 'repro_ticks_total'):,.0f}   "
        f"p50 {_metric(metrics, 'repro_tick_ms_p50')!r}ms   "
        f"p99 {_metric(metrics, 'repro_tick_ms_p99')!r}ms   "
        f"CoV {_metric(metrics, 'repro_tick_cov'):.3f}",
        f"ISR {_metric(metrics, 'repro_isr'):.4f}   "
        f"overloaded "
        f"{100.0 * _metric(metrics, 'repro_overloaded_fraction'):.1f}%"
        f"   entities {_metric(metrics, 'repro_entities'):,.0f}"
        f" (peak {_metric(metrics, 'repro_entities_peak'):,.0f})",
    ]
    phases = _family(metrics, "repro_phase_us_total")
    total_us = sum(phases.values())
    if total_us > 0:
        lines.append("")
        lines.append("top buckets (simulated µs):")
        ranked = sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, us in ranked[:_TOP_BUCKETS]:
            share = 100.0 * us / total_us
            bar = "#" * max(1, int(share / 4))
            lines.append(f"  {name:<14} {share:5.1f}%  {bar}")
    lines.append("")
    lines.append(
        f"responses {_metric(metrics, 'repro_response_samples_total'):,.0f}   "
        f"p50 {_metric(metrics, 'repro_response_ms_p50')!r}ms   "
        f"p99 {_metric(metrics, 'repro_response_ms_p99')!r}ms"
    )
    if "repro_wire_bytes_out_total" in metrics:
        lines.append(
            f"wire in {_metric(metrics, 'repro_wire_bytes_in_total'):,.0f}B  "
            f"out {_metric(metrics, 'repro_wire_bytes_out_total'):,.0f}B  "
            f"connects {_metric(metrics, 'repro_wire_connects_total'):,.0f}  "
            f"flush p99 {_metric(metrics, 'repro_wire_flush_us_p99'):,.0f}µs"
        )
    if "repro_trace_anomalies_total" in metrics:
        lines.append(
            f"slow ticks {_metric(metrics, 'repro_slow_ticks_total'):,.0f}   "
            f"anomalies "
            f"{_metric(metrics, 'repro_trace_anomalies_total'):,.0f}"
        )
    return lines


def render_top(doc: dict, source: str = "") -> str:
    """Render one dashboard frame from a ``repro-obs/v1`` JSON document."""
    meta = doc.get("meta") or {}
    metrics = doc.get("metrics") or {}
    lines: list[str] = []
    title = meta.get("campaign") or meta.get("cell") or ""
    header = "repro top"
    if title:
        header += f" — {title}"
    if source:
        header += f"  [{source}]"
    lines.append(header)
    banner = _hygiene_banner(meta)
    if banner:
        lines.append(banner)
    if "repro_jobs_total" not in metrics:
        return "\n".join([*lines, "", *_cell_block(metrics)]) + "\n"
    # A campaign: every metric read from records is keyed by cell.
    for cell in sorted(_family(metrics, "repro_ticks_total")):
        per_cell = {
            name: value[cell]
            for name, value in metrics.items()
            if EXPOSITION[name].path is not None and cell in value
        }
        lines += ["", f"cell {cell}", *_cell_block(per_cell)]
    lines += [
        "",
        f"jobs {_metric(metrics, 'repro_jobs_observed'):,.0f}"
        f"/{_metric(metrics, 'repro_jobs_total'):,.0f} observed   "
        f"iterations {_metric(metrics, 'repro_iterations_total'):,.0f}",
    ]
    return "\n".join(lines) + "\n"


def _dir_poller(target: str):
    """A poll function that snapshots a campaign directory's records."""
    from repro.campaign.store import JobStore
    from repro.obs.aggregate import campaign_meta, campaign_snapshot
    from repro.obs.registry import render_json

    store = JobStore(target)
    manifest = store.read_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no campaign manifest in {target!r} — "
            "point repro top at an output_dir or an endpoint URL"
        )
    meta = campaign_meta(manifest.get("name", ""), manifest.get("provenance"))
    # The document an endpoint would serve for the same snapshot.
    return lambda: json.loads(render_json(campaign_snapshot(store, meta)))


def run_top(
    target: str,
    interval_s: float = 2.0,
    once: bool = False,
    max_polls: int | None = None,
    out=None,
) -> int:
    """Poll ``target`` (endpoint URL or campaign dir) and draw frames.

    ``max_polls`` bounds the loop for tests; interactive use runs until
    interrupted.  Returns a process exit code.
    """
    out = sys.stdout if out is None else out
    if target.startswith(("http://", "https://")):
        poller = lambda: fetch_snapshot(target)  # noqa: E731
    else:
        poller = _dir_poller(target)
    polls = 0
    try:
        while True:
            try:
                doc = poller()
                frame = render_top(doc, source=target)
            except (OSError, ValueError) as exc:
                frame = f"repro top — {target}\n(unreachable: {exc})\n"
            if once or max_polls is not None:
                out.write(frame)
            else:
                out.write(_CLEAR + frame)
            out.flush()
            polls += 1
            if once or (max_polls is not None and polls >= max_polls):
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0

