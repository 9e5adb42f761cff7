"""Flood workload: the fluid-dominated terrain-simulation scenario.

One artifact: the Figure-11-style tick-time distribution of the Flood
dam-break workload (Fluids must be the largest bucket — that is the
workload's reason to exist).  What the fluid engine costs the host is a
layer row of the hostclock benchmark's ``terrain_writes`` workload.
"""

from conftest import DURATION_S, write_artifact

from repro.analysis.figures import run_cell
from repro.core.collectors import non_wait_shares
from repro.reporting.text import format_table


def test_flood_fluids_dominate(benchmark, out_dir):
    cell = benchmark.pedantic(
        run_cell,
        args=("flood", "vanilla", "aws-t3.large", DURATION_S),
        rounds=1,
        iterations=1,
    )
    shares = cell.tick_distribution
    active = non_wait_shares(shares)
    rows = [
        [bucket, f"{100 * share:.1f}%"]
        for bucket, share in sorted(active.items(), key=lambda kv: -kv[1])
    ]
    text = format_table(["bucket", "share of non-wait tick time"], rows)
    text += (
        "\n\nexpected: the dam-break cascade makes Fluids the largest"
        " work bucket — the workload exercises the terrain-simulation"
        " path the other workloads leave cold."
    )
    write_artifact("flood_fluids_distribution.txt", text)
    assert max(active, key=active.get) == "Fluids", active
