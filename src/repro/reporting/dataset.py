"""Load a campaign's on-disk artifacts into report-ready data.

The report engine consumes *only* what a campaign already wrote to disk
— it never re-simulates anything:

- ``manifest.json`` — spec, planned jobs, provenance (+ hygiene);
- ``telemetry/<job>.jsonl`` — one streamed line per finished iteration
  (these exist for in-flight and killed jobs too, which is what lets a
  half-completed campaign render with a "partial" banner);
- ``telemetry/<job>.anomalies.jsonl`` — slow-tick flight-recorder dumps;
- ``campaign_trace.json`` — executor phase timings.

Nothing outside the campaign directory is read: what the shell's working
directory holds never reaches a report.

Each sidecar line becomes one flat *report row*: the cell's axis fields
(:data:`repro.reporting.spec.AXIS_FIELDS`) plus every report column of
the metric catalog (:mod:`repro.telemetry.catalog`, which says where in
the line each one sits).  Rows are ordered by
planned job index then iteration, so two renders of the same campaign
directory are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.reporting.spec import AXIS_FIELDS
from repro.telemetry.catalog import read_columns

__all__ = [
    "CampaignDataset",
    "JobView",
    "iteration_row",
    "load_dataset",
    "sidecar_row",
]


def sidecar_row(job_dict: dict, line: dict) -> dict:
    """Flatten one telemetry sidecar line into a report row: the cell's
    axes and identity, then every catalog column (wire and trace columns
    stay ``None`` on lines without those sections)."""
    row = {axis: job_dict.get(axis) for axis in AXIS_FIELDS}
    row["iteration"] = line.get("iteration", 0)
    row["seed"] = line.get("seed")
    row["job_id"] = job_dict.get("job_id")
    row.update(read_columns(line))
    return row


def iteration_row(it) -> dict:
    """One merged shard iteration as a report row: :func:`sidecar_row`
    over the fields its sidecar line carries, plus the shard-only
    ``throttled_ticks``."""
    row = sidecar_row(
        {axis: getattr(it, axis) for axis in AXIS_FIELDS},
        {
            "iteration": it.iteration,
            "seed": it.seed,
            "crashed": it.crashed,
            "telemetry": it.telemetry,
        },
    )
    row["throttled_ticks"] = it.throttled_ticks
    return row


@dataclass
class JobView:
    """One planned job plus everything its sidecars streamed."""

    job: dict
    done: bool
    expected_iterations: int
    lines: list[dict] = field(default_factory=list)
    anomalies: list[dict] = field(default_factory=list)

    @property
    def job_id(self) -> str:
        return self.job["job_id"]

    @property
    def cell_label(self) -> str:
        parts = [self.job.get(axis) for axis in AXIS_FIELDS[:-1]]
        return " ".join(f"{part:g}" if isinstance(part, float) else str(part)
                        for part in parts)

    @property
    def iterations_done(self) -> int:
        return len(self.lines)

    @property
    def latest_windows(self) -> dict:
        """The most recent iteration's warmup/steady window snapshot."""
        if not self.lines:
            return {}
        telemetry = self.lines[-1].get("telemetry") or {}
        return (telemetry.get("tick") or {}).get("windows") or {}


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


def _expected_iterations(spec, job_dict: dict) -> int:
    """Per-cell iteration count (``iterations`` is overridable)."""
    try:
        from repro.campaign.planner import Job

        return spec.cell_iterations(Job.from_dict(job_dict).cell)
    except Exception:
        return getattr(spec, "iterations", 1)


def load_dataset(store) -> CampaignDataset:
    """Read one campaign's artifacts from a
    :class:`~repro.campaign.store.JobStore`."""
    from repro.campaign.spec import CampaignSpec

    manifest = store.read_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no campaign manifest at {store.manifest_path}"
        )
    spec_dict = manifest.get("spec") or {}
    try:
        spec = CampaignSpec.from_dict(spec_dict)
    except (TypeError, ValueError):
        spec = None
    completed = store.completed_ids()
    jobs: list[JobView] = []
    rows: list[dict] = []
    for job_dict in sorted(
        manifest.get("jobs", ()), key=lambda job: job["index"]
    ):
        view = JobView(
            job=job_dict,
            done=job_dict["job_id"] in completed,
            expected_iterations=(
                _expected_iterations(spec, job_dict)
                if spec is not None
                else int(spec_dict.get("iterations", 1))
            ),
            lines=store.read_job_telemetry(job_dict["job_id"]),
            anomalies=store.read_job_anomalies(job_dict["job_id"]),
        )
        jobs.append(view)
        rows.extend(sidecar_row(job_dict, line) for line in view.lines)
    return CampaignDataset(
        root=Path(store.root),
        name=manifest.get("name", spec_dict.get("name", "campaign")),
        spec=spec_dict,
        provenance=manifest.get("provenance") or {},
        jobs=jobs,
        rows=rows,
        campaign_trace=store.read_campaign_trace(),
    )
