"""Campaign execution: independent server chains across a process pool.

Each job (one matrix cell's server chain) is self-contained — its machine,
clock, and every RNG seed derive only from the spec — so jobs can run in
any order, in any process, and produce bit-identical results.  The
executor exploits that: with ``jobs=1`` it runs chains inline; with
``jobs=N`` it fans them out over a ``multiprocessing`` pool.  Either way
the process that runs a job streams its record into the
:class:`~repro.campaign.store.JobStore` — one line per iteration, then a
commit line — and hands the parent only its path: a result crosses the
process boundary as a file, not as a pickle to rebuild and serialise
again.  A committed record per finished job is what makes a killed
campaign resumable.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from collections.abc import Callable
from pathlib import Path

from repro.core.experiment import require_transport, run_server_chain
from repro.core.results import ExperimentResult, IterationResult
from repro.campaign.planner import Job, JobPlanner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.tracing.provenance import (
    measurement_config,
    provenance_fingerprint,
)

__all__ = [
    "CampaignExecutor",
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
            f"(fields: {', '.join(changed)}); completed records were "
            "measured under the old spec — rerun into a fresh output_dir"
        )


def open_campaign(
    spec: CampaignSpec, store: JobStore, plan: list[Job], resume: bool
) -> tuple[set[str], dict]:
    """Claim ``store`` for ``spec``: check what it already holds, then
    stamp the manifest.  Returns (completed job ids, manifest provenance).

    With ``resume`` the store may hold records of this same spec (checked
    against the recorded manifest; a committed one that no longer parses
    is not completed); without it a non-empty store is an error.  Records
    of a different spec are always refused — never silently clobber or
    silently reuse another campaign's measurements.
    """
    manifest = store.read_manifest()
    records = store.record_ids()
    stale = records - {job.job_id for job in plan}
    if records and not resume:
        raise FileExistsError(
            f"{store.root} already holds {len(records)} job record(s); "
            "resume the campaign or choose a fresh output_dir"
        )
    if stale:
        raise ValueError(
            f"{store.root} holds {len(stale)} record(s) from a "
            "different campaign spec; choose a fresh output_dir"
        )
    completed: set[str] = set()
    if resume and manifest is not None:
        # Normalize older manifests: fields added to the spec since
        # pick up their defaults instead of reading as spurious
        # changes, and a field since removed is refused by name.
        recorded = CampaignSpec.from_dict(manifest["spec"]).to_dict()
        _ensure_spec_unchanged(recorded, spec.to_dict(), store.root)
        completed = store.completed_ids()
        # A committed record scribbled on from outside is a job that
        # never finished: run it again, do not trip over it in merge.
        # A throwaway store parses them, so the parse is not held (and
        # inherited by every forked worker) while the jobs run.
        check = JobStore(store.root)
        for job_id in sorted(completed):
            try:
                check.load_job(job_id)
            except ValueError:
                completed.discard(job_id)
                print(f"resume: record of job {job_id} does not parse; "
                      "it is pending again", flush=True)
    # The manifest carries the campaign's provenance fingerprint —
    # the only timestamped one: job records must stay
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


def telemetry_line(job: Job, it: IterationResult) -> str:
    """One record line for a finished iteration: the job's identity and
    the whole :meth:`~repro.core.results.IterationResult.to_dict`.

    ``sort_keys`` keeps the byte stream deterministic, so serial and
    parallel campaign runs produce bit-identical records.
    """
    return json.dumps(
        {"job_id": job.job_id, "cell": job.cell.key(), **it.to_dict()},
        sort_keys=True,
    )


def run_job_chain(
    job: Job, config, store: JobStore, drive=None
) -> list[IterationResult]:
    """Run ``job``'s server chain, streaming its record as it goes.

    One line per finished iteration goes to the job's record file
    (truncating any record left by a previous attempt), flushed, which
    is what makes in-flight jobs observable via ``python -m repro
    status``.  The caller commits the record once the chain returns.
    """
    path = store.telemetry_path(job.job_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as record:

        def stream(it: IterationResult) -> None:
            record.write(telemetry_line(job, it) + "\n")
            record.flush()

        return run_server_chain(
            config, job.server, on_iteration=stream, drive=drive
        )


def execute_job(payload: dict) -> tuple[dict, str, dict]:
    """Run one job's server chain, streaming and committing its record;
    the unit shipped to worker processes.

    Takes and returns plain picklable values, so the same function serves
    the serial path and ``multiprocessing``: in, the spec, the job and
    the ``store`` root (the record streams under it while the chain
    runs, and is committed when the chain is done); out, the job, the
    path of the record this process wrote, and the job's phase timings
    (wall seconds for plan → iterate → externalize) for the campaign
    trace.
    """
    plan_start = time.perf_counter()
    spec = CampaignSpec.from_dict(payload["spec"])
    job = Job.from_dict(payload["job"])
    store = JobStore(payload["store"])
    config = JobPlanner(spec).job_config(job)
    phases = {"plan_s": time.perf_counter() - plan_start}
    iterate_start = time.perf_counter()
    iterations = run_job_chain(job, config, store)
    phases["iterate_s"] = time.perf_counter() - iterate_start
    externalize_start = time.perf_counter()
    record = store.save_job_payload(job, len(iterations))
    phases["externalize_s"] = time.perf_counter() - externalize_start
    return payload["job"], str(record), phases


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

        With ``resume=True``, jobs that already have a committed record are
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
            obs = self._start_obs(provenance)
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
            for job_dict, _record, phases in results:
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

    def _start_obs(self, provenance: dict):
        """Serve the campaign's live endpoint: each scrape is a
        :func:`~repro.obs.aggregate.campaign_snapshot` of the records as
        they stand, read through the endpoint's own store (whose parse
        cache the merge never shares)."""
        from repro.obs import ObsHttpServer, campaign_snapshot
        from repro.obs.aggregate import campaign_meta

        store = JobStore(self.store.root)
        meta = campaign_meta(self.spec.name, provenance)
        return ObsHttpServer(
            lambda: campaign_snapshot(store, meta),
            port=self.spec.obs_port,
            scrape_grace_s=self.spec.obs_scrape_grace,
        ).start()

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

        A worker has committed its job's record by the time
        ``imap_unordered`` streams its small result back, so records land
        (and resume-progress accrues) job by job rather than all at once;
        merge order is restored from the plan afterwards.
        """
        n_workers = min(self.jobs, len(payloads))
        with multiprocessing.Pool(processes=n_workers) as pool:
            yield from pool.imap_unordered(execute_job, payloads)
