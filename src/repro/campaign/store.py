"""Resumable on-disk job store (one JSON shard per completed job).

Layout, under the campaign's ``output_dir``::

    output_dir/
      manifest.json             the spec, planned job list, and the
                                campaign's provenance fingerprint
      campaign_trace.json       executor phase timings (plan/warm-boot/
                                iterate/externalize, per job and total)
                                and one entry per warm world-cache
                                snapshot (key, workloads, prepared, s)
      jobs/<job_id>.json        one shard per *completed* job
      telemetry/<job_id>.jsonl  streaming sidecar: one line per finished
                                iteration, written while the job runs
      telemetry/<job_id>.anomalies.jsonl
                                slow-tick flight-recorder dumps (traced
                                runs only; one line per anomalous tick)

Each shard is written once, by the process that ran the job (a pool
worker, or the parent when the campaign runs inline), atomically (temp
file + ``os.replace``): a campaign killed mid-run leaves either a complete
shard or none — never a torn one.  ``resume`` is then "skip every job
whose shard parses".  Shards are one unindented line (the C encoder
writes them; older indented ones load the same); the manifest and the
campaign trace, which people read, stay indented.

Telemetry sidecars are different on purpose: they are *streamed* (append
+ flush per iteration) so ``python -m repro status`` can show live
p50/p99/CoV and steady-state progress for in-flight jobs.  A torn final
line (the process died mid-write) is simply skipped on read, and a job
that re-runs after a crash truncates its own sidecar first.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core.results import ExperimentResult, IterationResult
from repro.campaign.planner import Job
from repro.campaign.spec import CampaignSpec

__all__ = ["JobStore", "SidecarFollower"]

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "jobs"
TELEMETRY_DIR = "telemetry"
REPORT_DIR = "report"


def _read_jsonl(path: Path) -> list[dict]:
    """The intact lines of a streamed sidecar, oldest first."""
    if not path.exists():
        return []
    lines: list[dict] = []
    for raw in path.read_text().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        try:
            lines.append(json.loads(raw))
        except json.JSONDecodeError:
            continue  # torn write from a killed worker
    return lines


class JobStore:
    """Reads and writes one campaign's on-disk state."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def shard_dir(self) -> Path:
        return self.root / SHARD_DIR

    def shard_path(self, job_id: str) -> Path:
        return self.shard_dir / f"{job_id}.json"

    @property
    def telemetry_dir(self) -> Path:
        return self.root / TELEMETRY_DIR

    def telemetry_path(self, job_id: str) -> Path:
        return self.telemetry_dir / f"{job_id}.jsonl"

    def anomaly_path(self, job_id: str) -> Path:
        """Slow-tick flight-recorder sidecar for one job."""
        return self.telemetry_dir / f"{job_id}.anomalies.jsonl"

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
        without invalidating jobs, shards, or provenance — the rewrite
        is atomic and touches nothing else in the manifest.
        """
        manifest = self._manifest()
        manifest.setdefault("spec", {})["output"] = output
        self._write_atomic(self.manifest_path, manifest)
        return self.manifest_path

    def manifest_jobs(self) -> list[Job]:
        return [Job.from_dict(raw) for raw in self._manifest()["jobs"]]

    # -- shards -------------------------------------------------------------

    def save_job(self, job: Job, iterations: list[IterationResult]) -> Path:
        return self.save_job_payload(job, [it.to_dict() for it in iterations])

    def save_job_payload(self, job: Job, iterations: list[dict]) -> Path:
        """The shard writer: ``iterations`` as ``to_dict`` gave them."""
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(job.job_id)
        self._write_atomic(
            path, {"job": job.to_dict(), "iterations": iterations}, indent=None
        )
        return path

    def load_job(self, job_id: str) -> list[IterationResult] | None:
        """The job's iterations, ``None`` without a shard; a shard that
        does not parse into them raises ``ValueError`` naming its path."""
        path = self.shard_path(job_id)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            return list(map(IterationResult.from_dict, payload["iterations"]))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ValueError(f"{path}: damaged job shard: {exc!r}") from None

    def completed_ids(self) -> set[str]:
        """Every job with a shard file, whole or not (``status`` polls)."""
        if not self.shard_dir.is_dir():
            return set()
        return {path.stem for path in self.shard_dir.glob("*.json")}

    # -- telemetry sidecars -------------------------------------------------

    def read_job_telemetry(self, job_id: str) -> list[dict]:
        """Per-iteration telemetry lines streamed by a (possibly still
        running) job, oldest first.  A torn trailing line is skipped."""
        return _read_jsonl(self.telemetry_path(job_id))

    #: How many trailing sidecar bytes ``status`` reads per job — enough
    #: for several iteration lines.
    _TAIL_BYTES = 65536

    def tail_job_telemetry(self, job_id: str) -> tuple[int, dict | None]:
        """``(iterations_done, latest_line)`` for one job's sidecar.

        Reads only the file's tail and parses only the most recent
        intact line — ``status`` polls every job's sidecar on every
        invocation, so the cost must stay O(jobs), not O(file bytes).
        The iteration count comes from the latest line's own
        ``iteration`` field (lines stream in order), not from counting
        lines.
        """
        path = self.telemetry_path(job_id)
        try:
            with path.open("rb") as sidecar:
                sidecar.seek(0, os.SEEK_END)
                size = sidecar.tell()
                sidecar.seek(max(0, size - self._TAIL_BYTES))
                block = sidecar.read().decode(errors="replace")
        except FileNotFoundError:
            return 0, None
        complete, sep, _torn = block.rpartition("\n")
        if not sep:
            return 0, None
        lines = [line for line in complete.splitlines() if line.strip()]
        for raw in reversed(lines):
            try:
                latest = json.loads(raw)
            except json.JSONDecodeError:
                continue  # torn or corrupt line from a killed worker
            return int(latest.get("iteration", len(lines) - 1)) + 1, latest
        return 0, None

    def read_job_anomalies(self, job_id: str) -> list[dict]:
        """Flight-recorder dumps streamed by one job, oldest first."""
        return _read_jsonl(self.anomaly_path(job_id))

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
        """Merge completed shards into one :class:`ExperimentResult`.

        Iterations are concatenated in planned job order (then iteration
        order within each job), so the merged result — and everything
        derived from it, ``summary.csv`` included — is identical no matter
        how many workers ran the campaign or in which order shards landed.
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

        A job with streamed telemetry but no shard yet is *running* (or
        was killed mid-chain); its entry carries the latest iteration's
        telemetry line so live campaigns are observable before any job
        completes.
        """
        jobs = self.manifest_jobs()
        done = self.completed_ids()
        entries = []
        for job in sorted(jobs, key=lambda j: j.index):
            n_iterations, latest = self.tail_job_telemetry(job.job_id)
            is_done = job.job_id in done
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
                    "iterations_done": n_iterations,
                    "telemetry": latest,
                }
            )
        return {
            "total": len(jobs),
            "completed": sum(1 for job in jobs if job.job_id in done),
            "pending": sum(1 for job in jobs if job.job_id not in done),
            "running": sum(
                1 for entry in entries if entry["state"] == "running"
            ),
            "jobs": entries,
        }

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _write_atomic(
        path: Path, payload: dict, indent: int | None = 2
    ) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=indent))
        os.replace(tmp, path)


class SidecarFollower:
    """Incrementally follow every job's telemetry sidecar in a store.

    Each :meth:`poll` reads only the bytes appended since the previous
    poll (one remembered offset per sidecar file), so a live dashboard or
    watch loop pays O(new lines) per tick instead of re-reading whole
    files the way one-shot ``status`` does.  A torn trailing line (the
    writer is mid-``write``) stays buffered until its newline arrives; a
    sidecar that *shrank* (a crashed job re-running truncates its own
    file) resets that file's offset and replays it from the top.
    """

    def __init__(self, store: JobStore) -> None:
        self.store = store
        #: sidecar path -> (byte offset consumed, buffered partial line).
        self._state: dict[Path, tuple[int, bytes]] = {}
        #: job_id -> the most recent parsed line seen for that job.
        self.latest: dict[str, dict] = {}

    def _paths(self) -> list[tuple[str, Path]]:
        telemetry_dir = self.store.telemetry_dir
        if not telemetry_dir.is_dir():
            return []
        return sorted(
            (path.stem, path)
            for path in telemetry_dir.glob("*.jsonl")
            if not path.name.endswith(
                (".anomalies.jsonl", ".clientspans.jsonl")
            )
        )

    def poll(self) -> list[dict]:
        """Parsed sidecar lines appended since the last poll, in
        (job_id, stream) order."""
        lines: list[dict] = []
        for job_id, path in self._paths():
            offset, partial = self._state.get(path, (0, b""))
            try:
                with path.open("rb") as sidecar:
                    sidecar.seek(0, os.SEEK_END)
                    size = sidecar.tell()
                    if size < offset:
                        # Truncated by a re-running job: replay from 0.
                        offset, partial = 0, b""
                    sidecar.seek(offset)
                    block = sidecar.read()
            except FileNotFoundError:
                continue
            offset += len(block)
            block = partial + block
            # No newline yet: rpartition leaves the whole block in the
            # third slot — it stays buffered as the partial line.
            complete, sep, partial = block.rpartition(b"\n")
            self._state[path] = (offset, partial)
            if not sep:
                continue
            for raw in complete.split(b"\n"):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except json.JSONDecodeError:
                    continue  # corrupt line from a killed worker
                lines.append(line)
                self.latest[line.get("job_id", job_id)] = line
        return lines
