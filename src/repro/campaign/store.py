"""Resumable on-disk job store: one streamed record file per job.

Layout, under the campaign's ``output_dir``::

    output_dir/
      manifest.json             the spec, planned job list, and the
                                campaign's provenance fingerprint
      campaign_trace.json       executor phase timings (plan/warm-boot/
                                iterate/externalize, per job and total)
                                and one entry per warm world-cache
                                snapshot (key, workloads, prepared, s)
      telemetry/<job_id>.jsonl  the job's record: one line per finished
                                iteration, then one commit line

An iteration line is ``{"job_id", "cell", **IterationResult.to_dict()}``
with sorted keys — the raw series, the telemetry summaries and, on
traced cells, the span dumps and slow-tick anomalies.  It is the only
copy of the iteration: ``merge``/``export``, ``resume``, ``status``,
``report``, ``trace export`` and the live obs view all read it.

The process that runs a job (a pool worker, or the parent when the
campaign runs inline) streams the record — append + flush per iteration,
after truncating whatever a previous attempt left — and appends the
commit line ``{"committed_iterations": n, "job_id": ...}`` once the chain
is done.  A job is complete exactly when its record ends with an intact
commit line for the number of iterations the spec plans; a campaign
killed mid-run leaves a record without one (perhaps with a torn last
line, which every reader skips), and ``resume`` runs that job again.
The manifest and the campaign trace, which people read, stay indented.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.results import ExperimentResult, IterationResult
from repro.campaign.planner import Job
from repro.campaign.spec import CampaignSpec
from repro.tracing.chrome import CLIENT_SPAN_SUFFIX

__all__ = ["JobStore"]

MANIFEST_NAME = "manifest.json"
TELEMETRY_DIR = "telemetry"
REPORT_DIR = "report"

#: The key only a record's commit line carries.
COMMIT_KEY = "committed_iterations"


def _parse_lines(raws: list[bytes]) -> list[dict]:
    """The JSON objects among ``raws``, in order; blank, torn and
    corrupt lines are skipped."""
    lines: list[dict] = []
    for raw in raws:
        raw = raw.strip()
        if not raw:
            continue
        try:
            line = json.loads(raw)
        except ValueError:
            continue  # torn write from a killed worker, or not JSON
        if isinstance(line, dict):
            lines.append(line)
    return lines


class JobStore:
    """Reads and writes one campaign's on-disk state."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: job_id -> (file identity, iteration lines, committed count).
        #: A record is parsed once while its file is unchanged, so
        #: ``merge``, ``load_job`` and the report share one copy of its
        #: lines — a traced record's span dumps sit in memory once.
        self._records: dict[str, tuple] = {}
        #: cell key -> (the ``(job_id, record identity)`` pairs its lines
        #: came from, its scraped statistics): kept by
        #: ``repro.obs.aggregate.campaign_snapshot`` across scrapes.
        self.cell_stats: dict[str, tuple] = {}

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def telemetry_dir(self) -> Path:
        return self.root / TELEMETRY_DIR

    def telemetry_path(self, job_id: str) -> Path:
        """The job's record file."""
        return self.telemetry_dir / f"{job_id}.jsonl"

    @property
    def campaign_trace_path(self) -> Path:
        return self.root / "campaign_trace.json"

    @property
    def report_dir(self) -> Path:
        """Where ``repro report`` renders by default."""
        return self.root / REPORT_DIR

    # -- manifest -----------------------------------------------------------

    def write_manifest(
        self,
        spec: CampaignSpec,
        jobs: list[Job],
        provenance: dict | None = None,
    ) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "name": spec.name,
            "spec": spec.to_dict(),
            "jobs": [job.to_dict() for job in jobs],
        }
        if provenance is not None:
            payload["provenance"] = provenance
        self._write_atomic(self.manifest_path, payload)
        return self.manifest_path

    def read_manifest(self) -> dict | None:
        """The manifest, ``None`` without one.  A directory in the older
        layout — one job shard per job under ``jobs/`` — is refused by
        name: its sidecars are not records, so nothing could read it."""
        if any((self.root / "jobs").glob("*.json")):
            raise ValueError(
                f"{self.root} holds job shards (jobs/*.json) from the "
                "layout before per-iteration job records; re-run the "
                "campaign into a fresh output_dir"
            )
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text())

    def _manifest(self) -> dict:
        manifest = self.read_manifest()
        if manifest is None:
            raise FileNotFoundError(
                f"no campaign manifest at {self.manifest_path}"
            )
        return manifest

    def manifest_spec(self) -> CampaignSpec:
        return CampaignSpec.from_dict(self._manifest()["spec"])

    def update_manifest_output(self, output: dict) -> Path:
        """Rewrite only the manifest spec's ``output:`` section.

        ``output`` is presentation-layer (outside the measurement
        fingerprint and ignored by resume), so ``repro report
        --update-output`` may persist an edited report declaration
        without invalidating jobs, records, or provenance — the rewrite
        is atomic and touches nothing else in the manifest.
        """
        manifest = self._manifest()
        manifest.setdefault("spec", {})["output"] = output
        self._write_atomic(self.manifest_path, manifest)
        return self.manifest_path

    def manifest_jobs(self) -> list[Job]:
        return [Job.from_dict(raw) for raw in self._manifest()["jobs"]]

    def expected_iterations(self) -> dict[str, int]:
        """Job id -> the iterations the manifest's spec plans for it."""
        spec = self.manifest_spec()
        return {
            job.job_id: spec.cell_iterations(job.cell)
            for job in self.manifest_jobs()
        }

    # -- records ------------------------------------------------------------

    def record_ids(self) -> set[str]:
        """Every job with a record file, committed or not (client span
        streams share the directory and are not records)."""
        if not self.telemetry_dir.is_dir():
            return set()
        return {
            path.name[: -len(".jsonl")]
            for path in self.telemetry_dir.glob("*.jsonl")
            if not path.name.endswith(CLIENT_SPAN_SUFFIX)
        }

    def save_job_payload(self, job: Job, n_iterations: int) -> Path:
        """Commit ``job``'s record: append the line that says its
        ``n_iterations`` streamed lines are the whole job."""
        path = self.telemetry_path(job.job_id)
        with path.open("a") as record:
            record.write(
                json.dumps(
                    {COMMIT_KEY: n_iterations, "job_id": job.job_id},
                    sort_keys=True,
                )
                + "\n"
            )
        return path

    def load_job(self, job_id: str) -> list[IterationResult] | None:
        """The committed job's iterations; ``None`` while its record ends
        without an intact commit line (never run, running, or killed).  A
        committed record whose lines do not parse into the committed
        iterations raises ``ValueError`` naming its path."""
        lines, committed = self.read_record(job_id)
        if committed is None:
            return None
        try:
            iterations = list(map(IterationResult.from_dict, lines))
            if [it.iteration for it in iterations] != list(range(committed)):
                raise ValueError(
                    f"{len(iterations)} intact iteration line(s) under a "
                    f"commit of {committed!r}"
                )
        except (ValueError, TypeError) as exc:
            path = self.telemetry_path(job_id)
            raise ValueError(f"{path}: damaged job record: {exc}") from None
        return iterations

    def completed_ids(self) -> set[str]:
        """Jobs whose record ends with an intact commit line for the
        number of iterations the manifest plans for them."""
        if self.read_manifest() is None:
            return set()
        return {
            job_id
            for job_id, expected in self.expected_iterations().items()
            if self._committed(job_id) == expected
        }

    def read_record(self, job_id: str) -> tuple[list[dict], int | None]:
        """A (possibly still running) job's record: its iteration lines,
        oldest first — one per finished iteration, torn and corrupt lines
        skipped — and the count its commit line holds (``None`` unless
        the record ends with an intact one)."""
        path = self.telemetry_path(job_id)
        try:
            stat = path.stat()
            identity = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            cached = self._records.get(job_id)
            if cached is None or cached[0] != identity:
                raws = path.read_bytes().split(b"\n")
                lines = list(filter(_has_telemetry, _parse_lines(raws[:-1])))
                cached = (identity, lines, _commit_of(raws))
                self._records[job_id] = cached
        except FileNotFoundError:
            return [], None
        return list(cached[1]), cached[2]

    def record_identity(self, job_id: str) -> tuple | None:
        """``(st_ino, st_size, st_mtime_ns)`` of the job's record as
        :meth:`read_record` last parsed it (``None``: never parsed)."""
        cached = self._records.get(job_id)
        return None if cached is None else cached[0]

    def read_job_telemetry(self, job_id: str) -> list[dict]:
        """The iteration lines of a job's record (see :meth:`read_record`)."""
        return self.read_record(job_id)[0]

    #: ``status`` reads each record's tail: this window for the commit
    #: line, and a window growing from ``_TAIL_BYTES`` until it holds one
    #: intact iteration line (a traced ``campaign_matrix`` line runs to
    #: 36-41 KB, so one window holds it).  Either way
    #: the cost is O(jobs), not O(file bytes).
    _COMMIT_BYTES = 4096
    _TAIL_BYTES = 65536

    def _committed(self, job_id: str) -> int | None:
        """The count the record's commit line holds, read from its tail."""
        try:
            with self.telemetry_path(job_id).open("rb") as record:
                size = record.seek(0, os.SEEK_END)
                record.seek(max(0, size - self._COMMIT_BYTES))
                return _commit_of(record.read().split(b"\n"))
        except FileNotFoundError:
            return None

    def _latest(self, job_id: str) -> dict | None:
        """The record's latest intact iteration line, read from a tail
        window that quadruples until it holds one or reaches the file's
        start."""
        window = self._TAIL_BYTES
        try:
            with self.telemetry_path(job_id).open("rb") as record:
                size = record.seek(0, os.SEEK_END)
                while True:
                    start = max(0, size - window)
                    record.seek(start)
                    # The last segment is torn or empty; unless the window
                    # starts the file, the first may be a line's back half.
                    segments = record.read().split(b"\n")[1 if start else 0:-1]
                    for raw in reversed(segments):
                        for line in _parse_lines([raw]):
                            if _has_telemetry(line):
                                return line
                    if start == 0:
                        return None
                    window *= 4
        except FileNotFoundError:
            return None

    def read_job_anomalies(self, job_id: str) -> list[dict]:
        """The slow-tick flight-recorder dumps in one job's record,
        oldest first (see :func:`line_anomalies`)."""
        return [
            anomaly
            for line in self.read_job_telemetry(job_id)
            for anomaly in line_anomalies(line)
        ]

    # -- campaign trace -----------------------------------------------------

    def write_campaign_trace(self, payload: dict) -> Path:
        """Persist the executor's job-lifecycle phase timings."""
        self.root.mkdir(parents=True, exist_ok=True)
        self._write_atomic(self.campaign_trace_path, payload)
        return self.campaign_trace_path

    def read_campaign_trace(self) -> dict | None:
        if not self.campaign_trace_path.exists():
            return None
        return json.loads(self.campaign_trace_path.read_text())

    # -- aggregation --------------------------------------------------------

    def merge(self, jobs: list[Job] | None = None) -> ExperimentResult:
        """Merge committed records into one :class:`ExperimentResult`.

        Iterations are concatenated in planned job order (then iteration
        order within each job), so the merged result — and everything
        derived from it, ``summary.csv`` included — is identical no matter
        how many workers ran the campaign or in which order records were
        committed.
        """
        manifest = self.read_manifest()
        if jobs is None:
            jobs = self.manifest_jobs()
        result = ExperimentResult(
            config=manifest["spec"] if manifest else {}
        )
        for job in sorted(jobs, key=lambda j: j.index):
            iterations = self.load_job(job.job_id)
            if iterations is not None:
                result.iterations.extend(iterations)
        return result

    def status(self) -> dict:
        """Per-job completion map plus aggregate counts and live telemetry.

        A job whose record holds iteration lines but no commit line is
        *running* (or was killed mid-chain); its entry carries the latest
        iteration line so live campaigns are observable before any job
        completes.
        """
        expected = self.expected_iterations()
        entries = []
        for job in sorted(self.manifest_jobs(), key=lambda j: j.index):
            latest = self._latest(job.job_id)
            is_done = self._committed(job.job_id) == expected[job.job_id]
            entries.append(
                {
                    "job_id": job.job_id,
                    "cell": job.cell.key(),
                    "done": is_done,
                    "state": (
                        "done"
                        if is_done
                        else ("running" if latest else "pending")
                    ),
                    # Lines stream in order: the latest line's own
                    # ``iteration`` field counts them.
                    "iterations_done": (
                        int(latest.get("iteration", 0)) + 1 if latest else 0
                    ),
                    "telemetry": latest,
                }
            )
        completed = sum(1 for entry in entries if entry["done"])
        return {
            "total": len(entries),
            "completed": completed,
            "pending": len(entries) - completed,
            "running": sum(
                1 for entry in entries if entry["state"] == "running"
            ),
            "jobs": entries,
        }

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, path)


def _has_telemetry(line: dict) -> bool:
    return "telemetry" in line


def _commit_of(raws: list[bytes]) -> int | None:
    """The count a record's commit line holds, ``None`` unless ``raws``
    (the record, or its tail, split at newlines) end with an intact one:
    the commit line, then the newline that ends the file."""
    last = [] if raws[-1] else _parse_lines(raws[-2:-1])
    return last[0].get(COMMIT_KEY) if last else None


def line_anomalies(line: dict) -> list[dict]:
    """The slow-tick flight-recorder dumps in one iteration line, each
    tagged with its job, cell and iteration."""
    trace = (line.get("telemetry") or {}).get("trace") or {}
    return [
        {
            "job_id": line.get("job_id"),
            "cell": line.get("cell"),
            "iteration": line.get("iteration"),
            **anomaly,
        }
        for anomaly in trace.get("anomalies") or ()
    ]
