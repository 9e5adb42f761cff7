"""Tables 2, 6, and 7: workload worlds, metric comparison, hosting plans.

Table 2: the four workload worlds and their loaded sizes.  Table 6: ISR vs
standard deviation / Allan variance / jitter on traces that expose order
dependence and normalization.  Table 7: the hosting-recommendation survey.
"""

from conftest import assert_findings

from repro.analysis import (
    HOSTING_PLANS,
    PAPER,
    table2_worlds,
    table6_metric_comparison,
    table7_hosting,
)
from repro.reporting.text import format_table


def test_table2_workload_worlds(benchmark, out_dir):
    result = benchmark.pedantic(table2_worlds)
    paper_mb = PAPER["table2.sizes_mb"]
    table = format_table(
        ["world", "loaded size MB", "paper on-disk MB", "properties"],
        [
            [r["workload"], f"{r['size_mb']:.1f}", paper_mb[r["workload"]],
             r["description"]]
            for r in result.rows
        ],
    )
    assert_findings(result, "table2_worlds.txt", table)


def test_table6_metric_comparison(benchmark, out_dir):
    result = benchmark.pedantic(table6_metric_comparison)
    table = format_table(
        ["metric", "clustered outliers", "spread outliers"],
        [
            [r["metric"], f"{r['clustered']:.4g}", f"{r['spread']:.4g}"]
            for r in result.rows
        ],
    )
    assert_findings(result, "table6_metric_comparison.txt", table)


def test_table7_hosting_recommendations(benchmark, out_dir):
    result = benchmark.pedantic(table7_hosting)
    table = format_table(
        ["service", "RAM GB", "vCPUs", "GHz"],
        [
            ["NP" if v is None else v for v in vars(plan).values()]
            for plan in HOSTING_PLANS
        ],
    )
    assert_findings(result, "table7_hosting.txt", table)
