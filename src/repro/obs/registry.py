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

A campaign's snapshot labels every metric read from record lines with
the ``cell`` it summarizes; a single-cell snapshot (``repro serve``)
carries no such label.

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
        #: name -> float, or a mapping nested one level per label key
        #: (``cell`` first, then the catalog's) down to the floats.
        self.values: dict = {}
        #: name -> its label keys, fixed by its first sample.
        self.label_keys: dict[str, tuple[str, ...]] = {}

    def export(
        self,
        name: str,
        value,
        label: str | None = None,
        cell: str | None = None,
    ) -> None:
        """Record one sample; ``name`` must be a catalogued exposition
        name.  ``cell`` labels a metric read from record lines with the
        campaign cell it summarizes."""
        if name not in EXPOSITION:
            raise ValueError(
                f"metric {name!r} is not in the metric catalog"
            )
        metric = EXPOSITION[name]
        if (label is None) == bool(metric.label_key):
            if label is None:
                raise ValueError(
                    f"metric {name!r} needs a {metric.label_key!r} label"
                )
            raise ValueError(f"metric {name!r} takes no label")
        if cell is not None and metric.path is None:
            raise ValueError(f"metric {name!r} takes no cell label")
        pairs = [
            (key, label_value)
            for key, label_value in (("cell", cell), (metric.label_key, label))
            if label_value is not None
        ]
        keys = tuple(key for key, _ in pairs)
        if self.label_keys.setdefault(name, keys) != keys:
            raise ValueError(f"metric {name!r} mixes label sets")
        node, key = self.values, name
        for _, label_value in pairs:
            node, key = node.setdefault(key, {}), label_value
        node[key] = float(value)

    def export_telemetry(
        self, telemetry: dict, cell: str | None = None
    ) -> None:
        """Export every catalogued metric of one record-shaped telemetry
        mapping (see :func:`telemetry_obs_snapshot`), each under
        ``cell`` when one is given."""
        for metric, value in scraped({"telemetry": telemetry}):
            if metric.label_key:
                for label, sample in sorted((value or {}).items()):
                    self.export(metric.name, sample, label=label, cell=cell)
            else:
                self.export(
                    metric.name, 0 if value is None else value, cell=cell
                )


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
    snap.export_telemetry(telemetry)
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


def _samples(value, keys: tuple[str, ...]):
    """``(label pairs, float)`` for each leaf of a nested sample."""
    if not keys:
        yield (), value
        return
    for label_value in sorted(value):
        for pairs, leaf in _samples(value[label_value], keys[1:]):
            yield ((keys[0], label_value), *pairs), leaf


def render_prometheus(snap: ObsSnapshot) -> str:
    """The Prometheus text exposition body: stable-sorted, timestamp-free."""
    lines: list[str] = []
    for name in sorted(snap.values):
        metric = EXPOSITION[name]
        lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        keys = snap.label_keys.get(name, ())
        for pairs, value in _samples(snap.values[name], keys):
            labels = ",".join(
                f'{key}="{_escape_label(label)}"' for key, label in pairs
            )
            braced = f"{{{labels}}}" if labels else ""
            lines.append(f"{name}{braced} {_format_value(value)}")
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
