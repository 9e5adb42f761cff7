#!/usr/bin/env python
"""Campaign orchestration: a 2-server × 2-workload × 2-environment sweep.

Expands the matrix into 8 independent jobs, runs them across worker
processes, and exports the merged results — the paper's "many runs"
methodology in one script.  Re-running after an interruption resumes
from the on-disk shards instead of starting over.

Usage::

    python examples/campaign_matrix.py [output_dir] [n_workers]
"""

import sys

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore
from repro.core.retrieval import retrieve
from repro.reporting.text import ascii_boxplot


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "campaign-out"
    n_workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    spec = CampaignSpec(
        name="example-sweep",
        servers=["vanilla", "papermc"],
        workloads=["control", "players"],
        environments=["das5-2core", "aws-t3.large"],
        bot_counts=[10],
        iterations=2,
        duration_s=10.0,
        seed=7,
        output_dir=output_dir,
        # Cloud players cells start with drained burst credits so the
        # short example run still shows throttling behaviour.
        overrides=[
            {
                "where": {
                    "workload": "players",
                    "environment": "aws-t3.large",
                },
                "set": {"warm_machines": True},
            }
        ],
    )
    print(
        f"{spec.name}: {spec.n_cells} cells x {spec.iterations} iterations "
        f"on {n_workers} worker(s) -> {output_dir}/"
    )

    def progress(job, n_done, n_total):
        print(f"  [{n_done}/{n_total}] {job.cell.key()}")

    executor = CampaignExecutor(spec, jobs=n_workers, progress=progress)
    already_done = JobStore(spec.output_dir).completed_ids()
    result = executor.run(resume=bool(already_done))

    export_dir = retrieve(result, f"{output_dir}/export")
    print(f"\nExported {len(result.iterations)} iterations to {export_dir}")

    print("\nISR per (server, environment), pooled over workloads:")
    for server in spec.servers:
        for environment in spec.environments:
            isrs = [
                it.isr
                for it in result.iterations
                if it.server == server and it.environment == environment
            ]
            mean_isr = sum(isrs) / len(isrs)
            print(f"  {server:10s} {environment:14s} ISR {mean_isr:.4f}")

    print("\nTick durations per environment:")
    series = [
        (
            environment,
            [
                t
                for it in result.iterations
                if it.environment == environment
                for t in it.tick_durations_ms
            ],
        )
        for environment in spec.environments
    ]
    print(ascii_boxplot(series))


if __name__ == "__main__":
    main()
