"""``repro top``: a plain-ANSI live dashboard over the obs plane.

Two targets, one renderer:

- an **endpoint URL** (``http://host:port/metrics`` or ``/metrics.json``)
  — polls the JSON snapshot of a running ``repro serve`` loop or a
  campaign executor's aggregate endpoint;
- a **campaign output directory** — follows the telemetry sidecars
  incrementally (per-file byte offsets, O(new lines) per poll) and folds
  them through the same :class:`~repro.obs.aggregate.CampaignObsAggregate`
  the executor serves, so the numbers agree with a scrape of the same
  campaign.

No curses: each frame is one block of text behind an ANSI
clear-and-home, so it works in any terminal, over ssh, and in CI logs
(``--once`` skips the escape codes entirely).
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


def _sample(doc: dict, name: str):
    """What the document holds for a catalogued exposition name.  A name
    the catalog does not list is a bug here, not a zero on the screen:
    a rename there fails the first frame."""
    if name not in EXPOSITION:
        raise KeyError(f"repro top reads uncatalogued metric {name!r}")
    return (doc.get("metrics") or {}).get(name)


def _metric(doc: dict, name: str) -> float:
    return float(_sample(doc, name) or 0.0)


def _family(doc: dict, name: str) -> dict:
    value = _sample(doc, name) or {}
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


def render_top(doc: dict, source: str = "") -> str:
    """Render one dashboard frame from a ``repro-obs/v1`` JSON document."""
    meta = doc.get("meta") or {}
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
    lines.append("")
    ticks = _metric(doc, "repro_ticks_total")
    lines.append(
        f"ticks {ticks:,.0f}   "
        f"p50 {_metric(doc, 'repro_tick_ms_p50'):.1f}ms   "
        f"p99 {_metric(doc, 'repro_tick_ms_p99'):.1f}ms   "
        f"CoV {_metric(doc, 'repro_tick_cov'):.3f}"
    )
    lines.append(
        f"ISR {_metric(doc, 'repro_isr'):.4f}   "
        f"overloaded {100.0 * _metric(doc, 'repro_overloaded_fraction'):.1f}%"
        f"   entities {_metric(doc, 'repro_entities'):,.0f}"
        f" (peak {_metric(doc, 'repro_entities_peak'):,.0f})"
    )
    phases = _family(doc, "repro_phase_us_total")
    total_us = sum(phases.values())
    if total_us > 0:
        lines.append("")
        lines.append("top buckets (simulated µs):")
        ranked = sorted(phases.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, us in ranked[:_TOP_BUCKETS]:
            share = 100.0 * us / total_us
            bar = "#" * max(1, int(share / 4))
            lines.append(f"  {name:<14} {share:5.1f}%  {bar}")
    samples = _metric(doc, "repro_response_samples_total")
    lines.append("")
    lines.append(
        f"responses {samples:,.0f}   "
        f"p50 {_metric(doc, 'repro_response_ms_p50'):.1f}ms   "
        f"p99 {_metric(doc, 'repro_response_ms_p99'):.1f}ms"
    )
    metrics = doc.get("metrics") or {}
    if "repro_wire_bytes_out_total" in metrics:
        lines.append(
            f"wire in {_metric(doc, 'repro_wire_bytes_in_total'):,.0f}B  "
            f"out {_metric(doc, 'repro_wire_bytes_out_total'):,.0f}B  "
            f"connects {_metric(doc, 'repro_wire_connects_total'):,.0f}  "
            f"flush p99 {_metric(doc, 'repro_wire_flush_us_p99'):,.0f}µs"
        )
    if "repro_trace_anomalies_total" in metrics:
        lines.append(
            f"slow ticks {_metric(doc, 'repro_slow_ticks_total'):,.0f}   "
            f"anomalies {_metric(doc, 'repro_trace_anomalies_total'):,.0f}"
        )
    if "repro_jobs_total" in metrics:
        lines.append(
            f"jobs {_metric(doc, 'repro_jobs_observed'):,.0f}"
            f"/{_metric(doc, 'repro_jobs_total'):,.0f} observed   "
            f"iterations {_metric(doc, 'repro_iterations_total'):,.0f}"
        )
    return "\n".join(lines) + "\n"


class _DirPoller:
    """Poll a campaign output directory through the sidecar follower."""

    def __init__(self, target: str) -> None:
        from repro.campaign.store import JobStore, SidecarFollower
        from repro.obs.aggregate import CampaignObsAggregate, campaign_meta

        self.store = JobStore(target)
        manifest = self.store.read_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"no campaign manifest in {target!r} — "
                "point repro top at an output_dir or an endpoint URL"
            )
        self.follower = SidecarFollower(self.store)
        self.aggregate = CampaignObsAggregate(
            n_jobs=len(manifest.get("jobs") or []),
            meta=campaign_meta(
                manifest.get("name", ""), manifest.get("provenance")
            ),
        )

    def __call__(self) -> dict:
        for line in self.follower.poll():
            self.aggregate.fold(line)
        snap = self.aggregate.snapshot()
        return {"meta": snap.meta, "metrics": snap.values}


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
        source = target
    else:
        poller = _DirPoller(target)
        source = target
    polls = 0
    try:
        while True:
            try:
                doc = poller()
                frame = render_top(doc, source=source)
            except (OSError, ValueError) as exc:
                frame = f"repro top — {source}\n(unreachable: {exc})\n"
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

