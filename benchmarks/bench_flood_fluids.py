"""Flood workload: the fluid-dominated terrain-simulation scenario.

Two artifacts: the Figure-11-style tick-time distribution of the Flood
dam-break workload (Fluids must be the largest bucket — that is the
workload's reason to exist), and a micro-benchmark pinning that the
batched fluid engine beats the scalar reference by >=2x on a >=5k-cell
queue.
"""

import time

from conftest import DURATION_S, write_artifact

from repro.analysis.figures import run_cell
from repro.reporting.text import format_table
from repro.mlg.blocks import Block
from repro.mlg.fluids import FluidEngine
from repro.mlg.workreport import WorkReport
from repro.mlg.world import World

#: Micro-benchmark pool edge: a POOL_EDGE^2 sheet of sources gives the
#: fluid queue >= 5k cells from the first tick.
POOL_EDGE = 80
MICRO_TICKS = 10 * 5  # ten fluid ticks


def test_flood_fluids_dominate(benchmark, out_dir):
    cell = benchmark.pedantic(
        run_cell,
        args=("flood", "vanilla", "aws-t3.large", DURATION_S),
        rounds=1,
        iterations=1,
    )
    shares = cell.tick_distribution
    active = {
        bucket: share
        for bucket, share in shares.items()
        if not bucket.startswith("Wait")
    }
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


def _build_pool(batched: bool) -> FluidEngine:
    world = World()
    for cx in range(-1, (POOL_EDGE >> 4) + 2):
        for cz in range(-1, (POOL_EDGE >> 4) + 2):
            chunk = world.ensure_chunk(cx, cz)
            chunk.blocks[:, :, :40] = Block.STONE
            chunk.recompute_heightmap()
    fluids = FluidEngine(world, max_updates_per_tick=8192, batched=batched)
    for x in range(POOL_EDGE):
        for z in range(POOL_EDGE):
            world.set_block(x, 40, z, Block.WATER_SOURCE, log=False)
    return fluids


def _run_pool(batched: bool) -> tuple[float, float]:
    fluids = _build_pool(batched)
    report = WorkReport()
    elapsed = 0.0
    for tick in range(MICRO_TICKS):
        if tick % 5 == 0:
            # A sustained flood keeps the whole pool due every fluid
            # tick (the dam cycle re-wakes the basin the same way); the
            # re-seeding itself is identical for both paths and stays
            # outside the timed region.
            for x in range(POOL_EDGE):
                for z in range(POOL_EDGE):
                    fluids._schedule_water(x, 40, z)
            assert fluids.pending >= 5000
        start = time.perf_counter()
        fluids.tick(tick, report)
        elapsed += time.perf_counter() - start
    return elapsed, report.get("fluid")


def test_fluid_microbench_batched_2x(out_dir):
    scalar_s, scalar_ops = _run_pool(batched=False)
    batched_s, batched_ops = _run_pool(batched=True)
    speedup = scalar_s / batched_s
    text = format_table(
        ["path", "wall s", "fluid ops"],
        [
            ["scalar", f"{scalar_s:.3f}", f"{scalar_ops:.0f}"],
            ["batched", f"{batched_s:.3f}", f"{batched_ops:.0f}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
    )
    write_artifact("flood_fluid_microbench.txt", text)
    # Both paths charge identical effective-update counts...
    assert scalar_ops == batched_ops
    # ...and the batched engine must be at least twice as fast on a
    # >=5k-cell queue (the acceptance floor; typical is far higher).
    assert speedup >= 2.0, f"batched speedup only {speedup:.2f}x"
