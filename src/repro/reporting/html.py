"""Assemble the single-file campaign report.

One self-contained HTML document: no external assets, no scripts, all
figures inline SVG, all styling in one ``<style>`` block.  Light and
dark mode come from the same render via CSS custom properties
(``prefers-color-scheme`` plus an explicit ``[data-theme]`` override
hook), so the bytes never depend on the viewer.

Rendering is a pure function of the loaded
:class:`~repro.reporting.dataset.CampaignDataset` and the parsed
``output:`` section — no clocks, no re-probing, no environment reads —
which is what makes ``repro report`` byte-identical across re-renders
of an unchanged campaign directory.
"""

from __future__ import annotations

from pathlib import Path

from repro.reporting.dataset import CampaignDataset
from repro.reporting.pivot import build_pivot
from repro.reporting.spec import OutputSpec
from repro.reporting.svg import (
    N_SERIES_SLOTS,
    anomaly_strip,
    matrix_plot,
    warmup_panel,
)

__all__ = ["escape", "render_report", "write_report"]


def escape(text: object) -> str:
    """Minimal HTML escaping for text and attribute values."""
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


# -- stylesheet ---------------------------------------------------------------

#: Light-mode tokens (reference palette; see the dataviz notes in the
#: repo docs).  Dark mode re-declares every token — it is its own
#: selection from the same ramps, not an automatic inversion.
_LIGHT_TOKENS = """\
  --page: #f9f9f7;
  --surface-1: #fcfcfb;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --baseline: #c3c2b7;
  --series-c1: #2a78d6;
  --series-c2: #eb6834;
  --series-c3: #1baf7a;
  --series-c4: #eda100;
  --series-c5: #e87ba4;
  --series-c6: #008300;
  --series-c7: #4a3aa7;
  --series-c8: #e34948;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
"""

_DARK_TOKENS = """\
  --page: #0d0d0d;
  --surface-1: #1a1a19;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --muted: #898781;
  --grid: #2c2c2a;
  --baseline: #383835;
  --series-c1: #3987e5;
  --series-c2: #d95926;
  --series-c3: #199e70;
  --series-c4: #c98500;
  --series-c5: #d55181;
  --series-c6: #008300;
  --series-c7: #9085e9;
  --series-c8: #e66767;
  --status-good: #0ca30c;
  --status-warning: #fab219;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
"""


def _series_css() -> str:
    rules = []
    for slot in range(1, N_SERIES_SLOTS + 1):
        rules.append(
            f".series-line.series-{slot} {{ stroke: var(--series-c{slot}); }}"
        )
        rules.append(
            f".series-dot.series-{slot} {{ fill: var(--series-c{slot}); }}"
        )
        rules.append(
            f".series-bgfill-{slot} {{ fill: var(--series-c{slot}); }}"
        )
        rules.append(
            f".series-bg-{slot} {{ background: var(--series-c{slot}); }}"
        )
    return "\n".join(rules)


def _style() -> str:
    return f"""\
:root {{
{_LIGHT_TOKENS}}}
@media (prefers-color-scheme: dark) {{
  :root:not([data-theme="light"]) {{
{_DARK_TOKENS}  }}
}}
:root[data-theme="dark"] {{
{_DARK_TOKENS}}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; background: var(--page); color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}}
main {{ max-width: 1020px; margin: 0 auto; padding: 24px 20px 48px; }}
h1 {{ font-size: 22px; margin: 0 0 2px; }}
h2 {{ font-size: 16px; margin: 28px 0 8px; }}
h3 {{ font-size: 13px; margin: 18px 0 6px; color: var(--text-secondary); }}
.subtitle {{ color: var(--text-secondary); margin: 0 0 16px; }}
code {{ font-family: ui-monospace, monospace; font-size: 12px; }}
section, .banner {{
  background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 8px; padding: 14px 16px; margin: 12px 0;
}}
.banner {{ display: flex; gap: 10px; align-items: baseline; }}
.banner ul {{ margin: 4px 0 0; padding-left: 18px; }}
.badge {{
  font-weight: 700; font-size: 11px; letter-spacing: 0.4px;
  padding: 2px 8px; border-radius: 10px; color: #0b0b0b;
  flex: none;
}}
.banner-pass .badge {{ background: var(--status-good); color: #ffffff; }}
.banner-warn .badge {{ background: var(--status-warning); }}
.banner-partial .badge {{ background: var(--status-serious); }}
.banner-info .badge {{ background: var(--baseline); }}
.stats {{ display: flex; flex-wrap: wrap; gap: 24px; }}
.stat .value {{ font-size: 22px; font-weight: 700; }}
.stat .label {{ color: var(--text-secondary); font-size: 12px; }}
table {{ border-collapse: collapse; margin: 8px 0; }}
th, td {{
  border-bottom: 1px solid var(--grid); padding: 4px 10px;
  text-align: left; font-size: 13px;
}}
thead th {{ color: var(--text-secondary); font-weight: 600; }}
td.num {{
  text-align: right; font-family: ui-monospace, monospace; font-size: 12px;
}}
svg.chart {{ display: block; margin: 8px 0; max-width: 100%; }}
svg text {{
  font: 11px system-ui, sans-serif; fill: var(--text-secondary);
}}
.grid {{ stroke: var(--grid); stroke-width: 1; }}
.series-line {{ fill: none; stroke-width: 2; }}
.series-dot {{ stroke: var(--surface-1); stroke-width: 2; }}
.anomaly-mark {{ stroke: none; }}
.steady-marker {{
  stroke: var(--status-good); stroke-width: 2; stroke-dasharray: 3 3;
}}
svg .tick-label {{ font-size: 10px; fill: var(--muted); }}
svg .axis-label {{ fill: var(--text-secondary); }}
svg .facet-title {{ fill: var(--text-primary); font-weight: 600; }}
svg .strip-label {{ font-size: 10px; }}
.legend {{ display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0; }}
.legend-item {{
  display: inline-flex; align-items: center; gap: 6px;
  color: var(--text-secondary); font-size: 12px;
}}
.swatch {{
  width: 10px; height: 10px; border-radius: 3px; display: inline-block;
}}
.note, .empty {{ color: var(--muted); font-size: 12px; margin: 4px 0; }}
.prov {{ color: var(--text-secondary); font-size: 12px; }}
.prov code {{ word-break: break-all; }}
{_series_css()}
"""


# -- sections -----------------------------------------------------------------


def _hygiene_banner(dataset: CampaignDataset) -> str:
    hygiene = dataset.hygiene
    if not hygiene:
        return (
            '<div class="banner banner-info"><span class="badge">N/A</span>'
            "<div>no measurement-hygiene snapshot in this campaign's "
            "provenance (recorded before hygiene probing, or manifest "
            "was hand-written)</div></div>"
        )
    probes = hygiene.get("probes", [])
    warns = [p for p in probes if p.get("status") == "warn"]
    if hygiene.get("status") == "pass":
        return (
            '<div class="banner banner-pass"><span class="badge">PASS</span>'
            f"<div>measurement hygiene: {len(probes)} probe(s), no "
            "warnings — see the hygiene section for what was observed"
            "</div></div>"
        )
    items = "".join(
        f"<li><strong>{escape(p.get('probe'))}</strong>: "
        f"{escape(p.get('detail'))}</li>"
        for p in warns
    )
    return (
        '<div class="banner banner-warn"><span class="badge">WARN</span>'
        f"<div>measurement hygiene: {len(warns)} of {len(probes)} "
        f"probe(s) warned — treat absolute numbers with care<ul>{items}"
        "</ul></div></div>"
    )


def _partial_banner(dataset: CampaignDataset) -> str:
    if not dataset.partial:
        return ""
    return (
        '<div class="banner banner-partial">'
        '<span class="badge">PARTIAL</span>'
        f"<div>partial campaign: {dataset.completed_jobs} of "
        f"{dataset.total_jobs} job(s) complete, "
        f"{dataset.seen_iterations} of {dataset.expected_iterations} "
        "iteration(s) on disk — figures below cover only what has "
        "landed</div></div>"
    )


def _stat(value: object, label: str) -> str:
    return (
        f'<div class="stat"><div class="value">{escape(value)}</div>'
        f'<div class="label">{escape(label)}</div></div>'
    )


def _summary_section(dataset: CampaignDataset) -> str:
    crashed = sum(1 for row in dataset.rows if row.get("crashed"))
    stats = [
        _stat(f"{dataset.completed_jobs}/{dataset.total_jobs}", "jobs done"),
        _stat(
            f"{dataset.seen_iterations}/{dataset.expected_iterations}",
            "iterations on disk",
        ),
        _stat(crashed, "crashed iterations"),
        _stat(len(dataset.anomalies), "slow-tick anomaly dumps"),
    ]
    return f'<section><div class="stats">{"".join(stats)}</div></section>'


def _provenance_section(dataset: CampaignDataset) -> str:
    prov = dataset.provenance
    bits = []
    if prov.get("captured_at"):
        bits.append(f"run at <code>{escape(prov['captured_at'])}</code>")
    if prov.get("fingerprint"):
        bits.append(
            f"measurement fingerprint <code>{escape(prov['fingerprint'])}"
            "</code>"
        )
    environment = prov.get("environment") or {}
    for key in ("python", "platform"):
        if environment.get(key):
            bits.append(f"{key} <code>{escape(environment[key])}</code>")
    if not bits:
        bits.append("no provenance recorded in the manifest")
    return (
        f'<p class="prov">campaign <strong>{escape(dataset.name)}</strong> '
        f'in <code>{escape(dataset.root)}</code> — {", ".join(bits)}</p>'
    )


def _pivot_sections(dataset: CampaignDataset, output: OutputSpec) -> str:
    parts = []
    for pivot_spec in output.pivots:
        table = build_pivot(dataset.rows, pivot_spec)
        body = table.to_html()
        note = ""
        if table.dropped_rows:
            note = (
                f'<p class="note">{table.dropped_rows} iteration(s) had no '
                f"{escape(pivot_spec.value)} value and were skipped</p>"
            )
        if not table.row_keys:
            body = '<p class="empty">no data for this pivot</p>'
        parts.append(
            f"<section><h2>{escape(table.title)}</h2>{body}{note}</section>"
        )
    return "".join(parts)


def _plot_sections(dataset: CampaignDataset, output: OutputSpec) -> str:
    parts = []
    for plot in output.plots:
        if plot.kind == "matrix":
            body = matrix_plot(dataset.rows, plot)
        elif plot.kind == "warmup":
            body = warmup_panel(dataset.jobs)
        else:  # anomalies
            body = anomaly_strip(dataset.jobs)
        parts.append(
            f"<section><h2>{escape(plot.label())}</h2>{body}</section>"
        )
    return "".join(parts)


def _hygiene_section(dataset: CampaignDataset) -> str:
    hygiene = dataset.hygiene
    if not hygiene:
        return ""
    rows = []
    for probe in hygiene.get("probes", []):
        observed = probe.get("observed")
        requested = probe.get("requested")
        rows.append(
            "<tr>"
            f"<td>{escape(probe.get('probe'))}</td>"
            f"<td>{escape(probe.get('status'))}</td>"
            f"<td>{escape('-' if observed is None else observed)}</td>"
            f"<td>{escape('-' if requested is None else requested)}</td>"
            f"<td>{escape(probe.get('detail'))}</td>"
            "</tr>"
        )
    return (
        "<section><h2>Measurement hygiene</h2>"
        "<p class='note'>probed on the campaign host at run start and "
        "stamped into the manifest's provenance — not re-probed at "
        "render time</p>"
        "<table><thead><tr><th>probe</th><th>status</th><th>observed</th>"
        "<th>requested</th><th>detail</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table></section>"
    )


def _trace_section(dataset: CampaignDataset) -> str:
    trace = dataset.campaign_trace
    if not trace:
        return ""
    phases = trace.get("phases") or {}
    cells = "".join(
        f"<tr><td>{escape(name)}</td>"
        f'<td class="num">{phases[name]:.3f}</td></tr>'
        for name in sorted(phases)
    )
    return (
        "<section><h2>Executor phases</h2>"
        "<table><thead><tr><th>phase</th><th>seconds</th></tr></thead>"
        f"<tbody>{cells}</tbody></table></section>"
    )


def render_report(dataset: CampaignDataset, output: OutputSpec) -> str:
    """Render the full report document as a string."""
    title = f"{dataset.name} — campaign report"
    return (
        "<!doctype html>\n"
        '<html lang="en">\n'
        '<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>\n{_style()}</style>\n</head>\n<body>\n<main>\n"
        f"<header><h1>{escape(dataset.name)}</h1>"
        '<p class="subtitle">Meterstick campaign report — rendered from '
        "the on-disk telemetry sidecars, no re-simulation</p></header>\n"
        + _provenance_section(dataset)
        + _hygiene_banner(dataset)
        + _partial_banner(dataset)
        + _summary_section(dataset)
        + _pivot_sections(dataset, output)
        + _plot_sections(dataset, output)
        + _hygiene_section(dataset)
        + _trace_section(dataset)
        + "</main>\n</body>\n</html>\n"
    )


def write_report(
    dataset: CampaignDataset,
    output: OutputSpec | None = None,
    out_dir: str | Path | None = None,
) -> dict[str, Path]:
    """Write the report and its CSV companions; return what was written.

    ``out_dir`` defaults to ``<campaign>/report``.  Writes the HTML
    document, one CSV per pivot that asked for one, and (unless
    disabled) the figure pipeline's per-iteration campaign grid as CSV.
    """
    if output is None:
        output = OutputSpec.from_dict(dataset.spec.get("output"))
    out_dir = Path(out_dir) if out_dir is not None else dataset.root / "report"
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    html_path = out_dir / output.html
    html_path.write_text(render_report(dataset, output))
    written["html"] = html_path
    for pivot_spec in output.pivots:
        if not pivot_spec.csv:
            continue
        table = build_pivot(dataset.rows, pivot_spec)
        csv_path = out_dir / pivot_spec.csv
        table.write_csv(csv_path)
        written[pivot_spec.csv] = csv_path
    if output.grid_csv:
        from repro.analysis.figures import GRID_COLUMNS, campaign_grid
        from repro.reporting.text import write_csv_rows

        grid = campaign_grid(dataset.rows)
        write_csv_rows(
            out_dir / output.grid_csv,
            GRID_COLUMNS,
            [row.values() for row in grid.rows],
        )
        written[output.grid_csv] = out_dir / output.grid_csv
    return written
