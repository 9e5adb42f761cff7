"""Campaign execution: independent server chains across a process pool.

Each job (one matrix cell's server chain) is self-contained — its machine,
clock, and every RNG seed derive only from the spec — so jobs can run in
any order, in any process, and produce bit-identical results.  The
executor exploits that: with ``jobs=1`` it runs chains inline; with
``jobs=N`` it fans them out over a ``multiprocessing`` pool.  Either way
the process that ran a job writes its shard into the
:class:`~repro.campaign.store.JobStore` — once, atomically — and hands
the parent only its path: a result crosses the process boundary as a
file, not as a pickle to rebuild and serialise again.  A shard per
finished job is what makes a killed campaign resumable.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.core.experiment import require_transport, run_server_chain
from repro.core.results import ExperimentResult, IterationResult
from repro.campaign.planner import Job, JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore, SidecarFollower
from repro.tracing.provenance import (
    measurement_config,
    provenance_fingerprint,
)

__all__ = [
    "CampaignExecutor",
    "anomaly_lines",
    "execute_job",
    "open_campaign",
    "run_job_chain",
    "telemetry_line",
]

#: Progress callback: (job, n_done, n_total).
ProgressFn = Callable[[Job, int, int], None]

#: Spec fields that may differ between run and resume: where results are
#: stored, how many workers run, and how results are presented — never
#: what gets measured.
_RESUME_IGNORED_FIELDS = ("output_dir", "jobs", "output")


def _ensure_spec_unchanged(recorded: dict, current: dict, root) -> None:
    """Refuse to resume when the spec's measurement parameters changed.

    Job ids only encode each cell's identity, so edits to e.g.
    ``duration_s`` or ``iterations`` between run and resume would
    silently mix measurements taken under different parameters."""
    changed = sorted(
        key
        for key in set(recorded) | set(current)
        if key not in _RESUME_IGNORED_FIELDS
        and recorded.get(key) != current.get(key)
    )
    if changed:
        raise ValueError(
            f"campaign spec changed since {root} was started "
            f"(fields: {', '.join(changed)}); completed shards were "
            "measured under the old spec — rerun into a fresh output_dir"
        )


def open_campaign(
    spec: CampaignSpec, store: JobStore, plan: list[Job], resume: bool
) -> tuple[set[str], dict]:
    """Claim ``store`` for ``spec``: check what it already holds, then
    stamp the manifest.  Returns (completed job ids, manifest provenance).

    With ``resume`` the store may hold shards of this same spec (checked
    against the recorded manifest; one that no longer parses is not
    completed); without it a non-empty store is an error.  Shards of a
    different spec are always refused — never silently clobber or
    silently reuse another campaign's measurements.
    """
    completed = store.completed_ids()
    stale = completed - {job.job_id for job in plan}
    if completed and not resume:
        raise FileExistsError(
            f"{store.root} already holds {len(completed)} completed "
            "job(s); resume the campaign or choose a fresh output_dir"
        )
    if stale:
        raise ValueError(
            f"{store.root} holds {len(stale)} shard(s) from a "
            "different campaign spec; choose a fresh output_dir"
        )
    if resume:
        # A shard truncated or scribbled on from outside is a job that
        # never finished: run it again, do not trip over it in merge.
        for job_id in sorted(completed):
            try:
                store.load_job(job_id)
            except ValueError:
                completed.discard(job_id)
                print(f"resume: shard of job {job_id} does not parse; "
                      "it is pending again", flush=True)
        manifest = store.read_manifest()
        if manifest is not None:
            # Normalize older manifests: fields added to the spec since
            # pick up their defaults instead of reading as spurious
            # changes, and a field since removed is refused by name.
            recorded = CampaignSpec.from_dict(manifest["spec"]).to_dict()
            _ensure_spec_unchanged(recorded, spec.to_dict(), store.root)
    # The manifest carries the campaign's provenance fingerprint —
    # the only timestamped one: shards and sidecars must stay
    # byte-identical across re-runs, the manifest need not.  The
    # measurement-hygiene snapshot (host conditions vs the spec's
    # ``system:`` requests) rides along *outside* the digest: probes
    # read live host state (load average, affinity), which must not
    # perturb the measurement fingerprint.
    from repro.reporting.hygiene import hygiene_snapshot

    provenance = provenance_fingerprint(
        measurement_config(spec.to_dict()), include_timestamp=True
    )
    provenance["hygiene"] = hygiene_snapshot(spec.system)
    store.write_manifest(spec, plan, provenance=provenance)
    return completed, provenance


def _sidecar_telemetry(telemetry: dict) -> dict:
    """Sidecar-sized telemetry: the trace bulk summarized.

    A traced iteration's span-dump ring ("ticks") and anomaly list can
    run to tens of kilobytes; ``status`` tail-reads sidecars on every
    poll, so the sidecar keeps only the trace's summary state (knobs,
    per-phase statistics, counters).  The full dumps stay in the job
    shard, and anomalies additionally stream to their own JSONL.
    """
    slim = dict(telemetry)
    trace = slim.get("trace")
    if isinstance(trace, dict):
        trace = dict(trace)
        trace["anomaly_count"] = len(trace.pop("anomalies", None) or [])
        trace.pop("ticks", None)
        slim["trace"] = trace
    return slim


def telemetry_line(job: Job, it: IterationResult) -> str:
    """One JSONL sidecar line for a finished iteration.

    ``sort_keys`` keeps the byte stream deterministic, so serial and
    parallel campaign runs produce bit-identical telemetry shards.
    """
    return json.dumps(
        {
            "job_id": job.job_id,
            "cell": job.cell.key(),
            "iteration": it.iteration,
            "seed": it.seed,
            "crashed": it.crashed,
            "fingerprint": it.provenance.get("fingerprint"),
            "telemetry": _sidecar_telemetry(it.telemetry),
        },
        sort_keys=True,
    )


def anomaly_lines(job: Job, it: IterationResult) -> list[str]:
    """Flight-recorder JSONL lines for one finished iteration."""
    anomalies = ((it.telemetry or {}).get("trace") or {}).get("anomalies")
    return [
        json.dumps(
            {
                "job_id": job.job_id,
                "cell": job.cell.key(),
                "iteration": it.iteration,
                **anomaly,
            },
            sort_keys=True,
        )
        for anomaly in anomalies or []
    ]


def run_job_chain(
    job: Job, config, telemetry_dir, drive=None
) -> list[IterationResult]:
    """Run ``job``'s server chain, streaming its sidecars as it goes.

    One JSONL line per finished iteration goes
    to ``<telemetry_dir>/<job_id>.jsonl`` (truncating any sidecar left by
    a previous attempt), which is what makes in-flight jobs observable
    via ``python -m repro status``.  Traced iterations additionally
    stream their slow-tick flight-recorder dumps into
    ``<telemetry_dir>/<job_id>.anomalies.jsonl``.
    """
    path = Path(telemetry_dir) / f"{job.job_id}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    anomalies_path = Path(telemetry_dir) / f"{job.job_id}.anomalies.jsonl"
    anomalies_path.unlink(missing_ok=True)
    with path.open("w") as sidecar:

        def stream(it: IterationResult) -> None:
            sidecar.write(telemetry_line(job, it) + "\n")
            sidecar.flush()
            lines = anomaly_lines(job, it)
            if lines:
                with anomalies_path.open("a") as recorder:
                    recorder.write("\n".join(lines) + "\n")

        return run_server_chain(
            config, job.server, on_iteration=stream, drive=drive
        )


def execute_job(payload: dict) -> tuple[dict, str, dict]:
    """Run one job's server chain and write its shard; the unit shipped
    to worker processes.

    Takes and returns plain picklable values, so the same function serves
    the serial path and ``multiprocessing``: in, the spec, the job and
    the ``store`` root (sidecars stream under it while the chain runs,
    the shard lands in it when the chain is done); out, the job, the path
    of the shard this process wrote, and the job's phase timings (wall
    seconds for plan → iterate → externalize) for the campaign trace.
    """
    plan_start = time.perf_counter()
    spec = CampaignSpec.from_dict(payload["spec"])
    job = Job.from_dict(payload["job"])
    store = JobStore(payload["store"])
    config = JobPlanner(spec).job_config(job)
    phases = {"plan_s": time.perf_counter() - plan_start}
    iterate_start = time.perf_counter()
    iterations = run_job_chain(job, config, store.telemetry_dir)
    phases["iterate_s"] = time.perf_counter() - iterate_start
    externalize_start = time.perf_counter()
    shard = store.save_job_payload(job, [it.to_dict() for it in iterations])
    phases["externalize_s"] = time.perf_counter() - externalize_start
    return payload["job"], str(shard), phases


class _ObsPlane:
    """The campaign's live metrics endpoint, fed by the sidecar streams.

    Workers already push one bounded delta per finished iteration — the
    sidecar JSONL line they stream for ``repro status`` — so the parent
    needs no second channel: a follower thread tails every sidecar
    (per-file byte offsets, O(new lines) per sweep), folds each line
    into one :class:`~repro.obs.aggregate.CampaignObsAggregate`, and a
    single HTTP endpoint serves the whole campaign.  The same path
    covers the serial and ``multiprocessing`` executors, because both
    stream the same sidecars.
    """

    #: Seconds between sidecar sweeps — latency of the dashboard, not of
    #: the measurement (sidecars land regardless).
    _POLL_S = 0.5

    def __init__(self, spec, store, n_jobs: int, provenance: dict | None):
        from repro.obs import CampaignObsAggregate, ObsHttpServer
        from repro.obs.aggregate import campaign_meta

        self._follower = SidecarFollower(store)
        self._aggregate = CampaignObsAggregate(
            n_jobs=n_jobs, meta=campaign_meta(spec.name, provenance)
        )
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._follow, name="obs-follower", daemon=True
        )
        self._endpoint = ObsHttpServer(
            self._aggregate.snapshot,
            port=spec.obs_port,
            scrape_grace_s=spec.obs_scrape_grace,
        )

    @property
    def url(self) -> str:
        return self._endpoint.url

    def _drain(self) -> None:
        for line in self._follower.poll():
            self._aggregate.fold(line)

    def _follow(self) -> None:
        while not self._stop.wait(self._POLL_S):
            self._drain()

    def start(self) -> "_ObsPlane":
        self._endpoint.start()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        # Final sweep: fold whatever landed after the last poll so a
        # grace-period scrape sees the completed campaign.
        self._drain()
        self._endpoint.stop()


class CampaignExecutor:
    """Plans, runs, and persists one campaign."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: JobStore | None = None,
        jobs: int | None = None,
        progress: ProgressFn | None = None,
    ) -> None:
        self.spec = spec
        self.store = store if store is not None else JobStore(spec.output_dir)
        self.jobs = jobs if jobs is not None else spec.jobs
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs!r}")
        self.progress = progress
        #: The live metrics endpoint URL, set while ``run()`` executes a
        #: spec with ``obs: true`` (None otherwise).
        self.obs_url: str | None = None

    def run(self, resume: bool = False) -> ExperimentResult:
        """Execute the campaign and return the merged result.

        With ``resume=True``, jobs that already have a shard on disk are
        skipped; without it, a non-empty store is an error (never silently
        clobber or silently reuse a previous campaign's measurements).
        """
        run_start = time.perf_counter()
        planner = JobPlanner(self.spec)
        plan = planner.plan()
        plan_s = time.perf_counter() - run_start
        for job in plan:
            require_transport(
                planner.job_config(job), "inproc", f"cell {job.cell.key()}"
            )
        completed, provenance = open_campaign(
            self.spec, self.store, plan, resume
        )
        obs = None
        if self.spec.obs:
            obs = _ObsPlane(
                self.spec, self.store, n_jobs=len(plan), provenance=provenance
            ).start()
            self.obs_url = obs.url
            print(f"obs endpoint {obs.url}", flush=True)
        try:
            warm_start = time.perf_counter()
            snapshots = []
            if self.spec.warm_world_cache:
                snapshots = self._ensure_world_caches(plan)
            warm_boot_s = time.perf_counter() - warm_start
            pending = [job for job in plan if job.job_id not in completed]
            n_total = len(plan)
            n_done = n_total - len(pending)
            payloads = [
                {
                    "spec": self.spec.to_dict(),
                    "job": job.to_dict(),
                    "store": str(self.store.root),
                }
                for job in pending
            ]
            if self.jobs > 1 and len(pending) > 1:
                results = self._run_parallel(payloads)
            else:
                results = map(execute_job, payloads)
            iterate_start = time.perf_counter()
            job_phases: dict[str, dict] = {}
            for job_dict, _shard, phases in results:
                job = Job.from_dict(job_dict)
                job_phases[job.job_id] = phases
                n_done += 1
                if self.progress is not None:
                    self.progress(job, n_done, n_total)
            iterate_s = time.perf_counter() - iterate_start
            externalize_start = time.perf_counter()
            merged = self.store.merge(plan)
            self.store.write_campaign_trace(
                {
                    "phases": {
                        "plan_s": plan_s,
                        "warm_boot_s": warm_boot_s,
                        "iterate_s": iterate_s,
                        "externalize_s": (
                            time.perf_counter() - externalize_start
                        ),
                    },
                    "world_cache": snapshots,
                    "jobs": {
                        job_id: job_phases[job_id]
                        for job_id in sorted(job_phases)
                    },
                }
            )
            return merged
        finally:
            if obs is not None:
                obs.stop()

    def _ensure_world_caches(self, plan: list[Job]) -> list[dict]:
        """Pre-generate each distinct starting world (one per
        :func:`world_cache_key`) once, before any worker starts;
        ``cell_config`` points every cell's ``world_cache_dir`` at its
        snapshot.  Idempotent — a matching snapshot is kept, so resumes,
        restored CI caches and workloads that share it skip the
        generation cost.  Returns one entry per snapshot: key, workloads
        served, whether prepared, seconds."""
        from repro.persistence.warmup import ensure_world_cache

        cache_root = Path(self.spec.output_dir) / "world-cache"
        snapshots: dict[str, dict] = {}
        for workload, scale in sorted(
            {(job.workload, job.scale) for job in plan}
        ):
            start = time.perf_counter()
            path, prepared = ensure_world_cache(
                cache_root, workload, scale, self.spec.seed
            )
            entry = snapshots.setdefault(
                path.name,
                {"key": path.name, "workloads": [], "prepared": False, "s": 0},
            )
            entry["prepared"] |= prepared
            if workload not in entry["workloads"]:
                entry["workloads"].append(workload)
            entry["s"] += time.perf_counter() - start
        return list(snapshots.values())

    def _run_parallel(self, payloads: list[dict]):
        """Fan pending jobs out over a process pool, yielding completions.

        A worker has written its job's shard by the time
        ``imap_unordered`` streams its small result back, so shards land
        (and resume-progress accrues) job by job rather than all at once;
        merge order is restored from the plan afterwards.
        """
        n_workers = min(self.jobs, len(payloads))
        with multiprocessing.Pool(processes=n_workers) as pool:
            yield from pool.imap_unordered(execute_job, payloads)
