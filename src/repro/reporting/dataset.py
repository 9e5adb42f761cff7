"""Load a campaign's on-disk artifacts into report-ready data.

The report engine consumes *only* what a campaign already wrote to disk
— it never re-simulates anything:

- ``manifest.json`` — spec, planned jobs, provenance (+ hygiene);
- ``telemetry/<job>.jsonl`` — the job's record: one streamed line per
  finished iteration, then a commit line once the job is done (records
  of in-flight and killed jobs have no commit line, which is what lets a
  half-completed campaign render with a "partial" banner).  Traced
  lines carry the slow-tick flight-recorder dumps;
- ``campaign_trace.json`` — executor phase timings.

Nothing outside the campaign directory is read: what the shell's working
directory holds never reaches a report.

Each iteration line becomes one flat *report row*: the cell's axis fields
(:data:`repro.reporting.spec.AXIS_FIELDS`) plus every report column of
the metric catalog (:mod:`repro.telemetry.catalog`, which says where in
the line each one sits) and ``throttled_ticks``.  Rows are ordered by
planned job index then iteration, so two renders of the same campaign
directory are byte-identical.  A row holds scalars only: the span dumps
a traced line carries never reach the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.reporting.spec import AXIS_FIELDS
from repro.telemetry.catalog import read_columns

__all__ = [
    "CampaignDataset",
    "JobView",
    "load_dataset",
    "sidecar_row",
]


def sidecar_row(job_dict: dict, line: dict) -> dict:
    """Flatten one iteration line into a report row: the cell's axes and
    identity, then every catalog column (wire and trace columns stay
    ``None`` on lines without those sections), then ``throttled_ticks``
    (``None`` on a telemetry-only line)."""
    row = {axis: job_dict.get(axis) for axis in AXIS_FIELDS}
    row["iteration"] = line.get("iteration", 0)
    row["seed"] = line.get("seed")
    row["job_id"] = job_dict.get("job_id")
    row.update(read_columns(line))
    row["throttled_ticks"] = line.get("throttled_ticks")
    return row


@dataclass
class JobView:
    """One planned job plus what the report draws from its record."""

    job: dict
    done: bool
    expected_iterations: int
    iterations_done: int = 0
    #: The most recent iteration's warmup/steady window snapshot.
    latest_windows: dict = field(default_factory=dict)
    anomalies: list[dict] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.job["job_id"]

    @property
    def cell_label(self) -> str:
        parts = [self.job.get(axis) for axis in AXIS_FIELDS[:-1]]
        return " ".join(f"{part:g}" if isinstance(part, float) else str(part)
                        for part in parts)


@dataclass
class CampaignDataset:
    """Everything the renderers need, loaded once from disk."""

    root: Path
    name: str
    spec: dict
    provenance: dict
    jobs: list[JobView]
    rows: list[dict]
    campaign_trace: dict | None

    @property
    def hygiene(self) -> dict | None:
        return self.provenance.get("hygiene")

    @property
    def total_jobs(self) -> int:
        return len(self.jobs)

    @property
    def completed_jobs(self) -> int:
        return sum(1 for view in self.jobs if view.done)

    @property
    def expected_iterations(self) -> int:
        return sum(view.expected_iterations for view in self.jobs)

    @property
    def seen_iterations(self) -> int:
        return sum(view.iterations_done for view in self.jobs)

    @property
    def partial(self) -> bool:
        """True when any planned work has not landed on disk yet."""
        return (
            self.completed_jobs < self.total_jobs
            or self.seen_iterations < self.expected_iterations
        )

    @property
    def anomalies(self) -> list[dict]:
        """All flight-recorder dumps, in planned job order."""
        return [
            anomaly for view in self.jobs for anomaly in view.anomalies
        ]


def load_dataset(store) -> CampaignDataset:
    """Read one campaign's artifacts from a
    :class:`~repro.campaign.store.JobStore`."""
    from repro.campaign.store import line_anomalies

    manifest = store.read_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no campaign manifest at {store.manifest_path}"
        )
    expected = store.expected_iterations()
    jobs: list[JobView] = []
    rows: list[dict] = []
    for job_dict in sorted(manifest["jobs"], key=lambda job: job["index"]):
        job_id = job_dict["job_id"]
        lines, committed = store.read_record(job_id)
        rows.extend(sidecar_row(job_dict, line) for line in lines)
        latest = lines[-1]["telemetry"] if lines else {}
        jobs.append(
            JobView(
                job=job_dict,
                done=committed == expected[job_id],
                expected_iterations=expected[job_id],
                iterations_done=len(lines),
                latest_windows=(latest.get("tick") or {}).get("windows")
                or {},
                anomalies=[
                    anomaly
                    for line in lines
                    for anomaly in line_anomalies(line)
                ],
            )
        )
    spec_dict = manifest["spec"]
    return CampaignDataset(
        root=Path(store.root),
        name=manifest.get("name", spec_dict.get("name", "campaign")),
        spec=spec_dict,
        provenance=manifest.get("provenance") or {},
        jobs=jobs,
        rows=rows,
        campaign_trace=store.read_campaign_trace(),
    )
