"""The obs snapshot: one scrape's worth of catalogued metrics, rendered.

Meterstick's thesis is that variability must be observed *while it
happens*; the endpoint therefore re-exports the same summaries the
job records already carry — of the :class:`~repro.telemetry.tap.ServerTelemetry`
tap's series, the tracer's per-phase costs, and the wire metrics — rather
than keeping a second set of counters.  What may be exported, under
which name, type and help text, is the exposition side of the metric
catalog (:data:`repro.telemetry.catalog.EXPOSITION`):
:func:`telemetry_obs_snapshot` is a loop over it, and
``ObsSnapshot.export`` refuses a name it does not list, so the
endpoint's surface cannot drift from the table documenting it.

Scrape-diffability contract: rendered output is stable-sorted by metric
name (label values sorted within a family) and carries **no wall-clock
timestamps** — two scrapes of an idle server are byte-identical, and any
diff between scrapes is real simulation progress.
"""

from __future__ import annotations

import json

from repro.telemetry.catalog import EXPOSITION, scraped

__all__ = [
    "ObsSnapshot",
    "render_json",
    "render_prometheus",
    "telemetry_obs_snapshot",
]


class ObsSnapshot:
    """One scrape's worth of metric values, plus run metadata.

    ``meta`` (run name, cell, hygiene status, …) rides only in the JSON
    rendering — the Prometheus text body stays pure metric samples.
    """

    def __init__(self, meta: dict | None = None) -> None:
        self.meta = dict(meta or {})
        #: name -> float, or name -> {label value -> float} for families.
        self.values: dict = {}

    def export(self, name: str, value, label: str | None = None) -> None:
        """Record one sample; ``name`` must be a catalogued exposition
        name."""
        if name not in EXPOSITION:
            raise ValueError(
                f"metric {name!r} is not in the metric catalog"
            )
        label_key = EXPOSITION[name].label_key
        if label is None:
            if label_key:
                raise ValueError(
                    f"metric {name!r} needs a {label_key!r} label"
                )
            self.values[name] = float(value)
        else:
            if not label_key:
                raise ValueError(f"metric {name!r} takes no label")
            self.values.setdefault(name, {})[label] = float(value)


def telemetry_obs_snapshot(
    telemetry: dict, meta: dict | None = None
) -> ObsSnapshot:
    """Build a snapshot from one record-shaped telemetry mapping.

    ``telemetry`` is the exact shape the campaign's record lines carry
    (``{"tick": tap snapshot, "response_ms": ..., "wire": ...,
    "trace": ...}``) — the serve loop builds the same mapping live from
    its series, so the endpoint and the records can never
    disagree on what a metric means.
    """
    snap = ObsSnapshot(meta)
    for metric, value in scraped({"telemetry": telemetry}):
        if metric.label_key:
            for label, sample in sorted((value or {}).items()):
                snap.export(metric.name, sample, label=label)
        else:
            snap.export(metric.name, 0 if value is None else value)
    return snap


def _format_value(value: float) -> str:
    """Deterministic sample formatting (integers stay integral)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def render_prometheus(snap: ObsSnapshot) -> str:
    """The Prometheus text exposition body: stable-sorted, timestamp-free."""
    lines: list[str] = []
    for name in sorted(snap.values):
        metric = EXPOSITION[name]
        lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        value = snap.values[name]
        if isinstance(value, dict):
            for label_value in sorted(value):
                lines.append(
                    f'{name}{{{metric.label_key}="{_escape_label(label_value)}"}} '
                    f"{_format_value(value[label_value])}"
                )
        else:
            lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


def render_json(snap: ObsSnapshot) -> str:
    """The JSON snapshot body (schema ``repro-obs/v1``), key-sorted."""
    return (
        json.dumps(
            {
                "schema": "repro-obs/v1",
                "meta": snap.meta,
                "metrics": snap.values,
            },
            sort_keys=True,
        )
        + "\n"
    )
