"""Tables 2, 6, and 7: workload worlds, metric comparison, hosting plans.

Table 2: the four workload worlds and their loaded sizes.  Table 6: ISR vs
standard deviation / Allan variance / jitter on traces that expose order
dependence and normalization.  Table 7: the hosting-recommendation survey.
"""

import numpy as np
import pytest
from conftest import write_artifact

from repro.analysis import PAPER
from repro.analysis.hosting import HOSTING_PLANS, most_common_recommendation
from repro.reporting.text import format_table
from repro.metrics import (
    allan_variance,
    clustered_outlier_trace,
    instability_ratio,
    rfc3550_jitter,
    spread_outlier_trace,
)
from repro.workloads import get_workload


def _build_worlds():
    """Build each workload world and measure its loaded footprint."""
    rows = []
    for name in ("control", "tnt", "farm", "lag"):
        workload = get_workload(name)
        world = workload.create_world(seed=7)
        # Touch the observer's spawn area so sizes are comparable.
        for cx in range(-2, 3):
            for cz in range(-2, 3):
                world.ensure_chunk(cx, cz)
        rows.append(
            {
                "workload": workload.display_name,
                "size_mb": workload.world_size_mb(world),
                "description": workload.description,
            }
        )
    return rows


def test_table2_workload_worlds(benchmark, out_dir):
    rows = benchmark.pedantic(_build_worlds, rounds=1, iterations=1)
    text = format_table(
        ["world", "loaded size MB", "properties"],
        [
            [r["workload"], f"{r['size_mb']:.1f}", r["description"]]
            for r in rows
        ],
    )
    text += "\n\npaper sizes (on-disk, MB): Control 5.4, TNT 6.3, Farm 26.0,"
    text += " Lag 4.7 (ours are in-memory chunk footprints)."
    write_artifact("table2_worlds.txt", text)
    names = {r["workload"] for r in rows}
    assert names == set(PAPER["table2"]["worlds"])
    for row in rows:
        assert row["size_mb"] > 0.0


def _metric_comparison():
    """Table 6's property demonstration on synthetic traces."""
    budget = 50.0
    clustered = clustered_outlier_trace(1000, 5, 20.0)
    spread = spread_outlier_trace(1000, 5, 20.0)
    return {
        "std_clustered": float(np.std(clustered)),
        "std_spread": float(np.std(spread)),
        "allan_clustered": allan_variance(list(clustered)),
        "allan_spread": allan_variance(list(spread)),
        "jitter_clustered": rfc3550_jitter(list(clustered)),
        "jitter_spread": rfc3550_jitter(list(spread)),
        "isr_clustered": instability_ratio(clustered, budget),
        "isr_spread": instability_ratio(spread, budget),
    }


def test_table6_metric_comparison(benchmark, out_dir):
    metrics = benchmark.pedantic(_metric_comparison, rounds=1, iterations=1)
    text = format_table(
        ["metric", "clustered outliers", "spread outliers", "order dep.?"],
        [
            [
                "std dev",
                f"{metrics['std_clustered']:.2f}",
                f"{metrics['std_spread']:.2f}",
                "no",
            ],
            [
                "Allan variance",
                f"{metrics['allan_clustered']:.1f}",
                f"{metrics['allan_spread']:.1f}",
                "yes",
            ],
            [
                "RFC3550 jitter",
                f"{metrics['jitter_clustered']:.2f}",
                f"{metrics['jitter_spread']:.2f}",
                "yes (not normalized)",
            ],
            [
                "ISR",
                f"{metrics['isr_clustered']:.4f}",
                f"{metrics['isr_spread']:.4f}",
                "yes (normalized)",
            ],
        ],
    )
    write_artifact("table6_metric_comparison.txt", text)
    # Standard deviation cannot tell the traces apart; the others can.
    assert metrics["std_clustered"] == pytest.approx(metrics["std_spread"])
    assert metrics["allan_spread"] > metrics["allan_clustered"]
    assert metrics["isr_spread"] > 4 * metrics["isr_clustered"]
    # ISR is normalized to [0, 1]; jitter is in milliseconds.
    assert 0.0 <= metrics["isr_spread"] <= 1.0


def test_table7_hosting_recommendations(benchmark, out_dir):
    ram, vcpus = benchmark.pedantic(
        most_common_recommendation, rounds=1, iterations=1
    )
    text = format_table(
        ["service", "RAM GB", "vCPUs", "GHz"],
        [
            [
                plan.service,
                plan.ram_gb if plan.ram_gb is not None else "NP",
                plan.vcpus if plan.vcpus is not None else "NP",
                plan.cpu_speed_ghz if plan.cpu_speed_ghz is not None else "NP",
            ]
            for plan in HOSTING_PLANS
        ],
    )
    text += f"\n\nmost common recommendation: {vcpus} vCPU / {ram:.0f} GB"
    write_artifact("table7_hosting.txt", text)
    assert ram == PAPER["table7"]["common_ram_gb"]
    assert vcpus == PAPER["table7"]["common_vcpus"]
    assert len(HOSTING_PLANS) == 23
