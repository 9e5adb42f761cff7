"""Figure 7 / MF1: response time on AWS for Minecraft and Forge under
Control, Farm and TNT; PaperMC is omitted, as in the paper (its async chat
thread decouples the echo from the tick)."""

from conftest import DURATION_S, assert_findings

from repro.analysis import fig7_response_times
from repro.reporting.text import format_table


def test_fig7_mf1_response_time(benchmark, out_dir):
    result = benchmark.pedantic(
        fig7_response_times, kwargs={"duration_s": DURATION_S}
    )
    table = format_table(
        ["workload", "server", "mean", "median", "p95", "max", "max/mean"],
        [
            [r["workload"], r["server"], f"{r['mean_ms']:.1f}",
             f"{r['median_ms']:.1f}", f"{r['p95_ms']:.1f}",
             f"{r['max_ms']:.0f}", f"{r['max_over_mean']:.1f}x"]
            for r in result.rows
        ],
    )
    assert_findings(result, "fig07_mf1_response_time.txt", table)
