"""Declarative campaign reporting.

The report engine consumes only on-disk campaign artifacts (manifest,
job records, campaign trace, perf history) and renders pivot
tables, inline-SVG figures, and one self-contained HTML report, driven
by the spec's ``output:`` section; :mod:`repro.reporting.hygiene`
supplies the ``system:`` measurement-hygiene probes.

Import discipline: ``repro.core`` exports this package's text
renderers (:mod:`repro.reporting.text`), so it triggers this module
during its own import.  Only cycle-free modules (text, spec, hygiene, pivot)
may be imported eagerly here; everything that reaches back into
``repro.campaign`` or ``repro.analysis`` (dataset, html, svg) loads
lazily through ``__getattr__``.
"""

from repro.reporting.hygiene import HYGIENE_PROBES, hygiene_snapshot
from repro.reporting.pivot import PivotTable, build_pivot
from repro.reporting.spec import (
    AGGREGATES,
    AXIS_FIELDS,
    METRIC_FIELDS,
    OutputSpec,
    PivotSpec,
    PlotSpec,
    SYSTEM_FIELDS,
    default_output,
    validate_output,
    validate_system,
)
from repro.reporting.text import (
    ascii_boxplot,
    ascii_timeseries,
    format_table,
    write_csv_rows,
    write_csv_series,
)

__all__ = [
    "AGGREGATES",
    "AXIS_FIELDS",
    "CampaignDataset",
    "HYGIENE_PROBES",
    "METRIC_FIELDS",
    "OutputSpec",
    "PivotSpec",
    "PivotTable",
    "PlotSpec",
    "SYSTEM_FIELDS",
    "ascii_boxplot",
    "ascii_timeseries",
    "build_pivot",
    "default_output",
    "format_table",
    "hygiene_snapshot",
    "load_dataset",
    "render_report",
    "validate_output",
    "validate_system",
    "write_csv_rows",
    "write_csv_series",
    "write_report",
]

_LAZY = {
    "CampaignDataset": "repro.reporting.dataset",
    "JobView": "repro.reporting.dataset",
    "load_dataset": "repro.reporting.dataset",
    "sidecar_row": "repro.reporting.dataset",
    "escape": "repro.reporting.html",
    "render_report": "repro.reporting.html",
    "write_report": "repro.reporting.html",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
