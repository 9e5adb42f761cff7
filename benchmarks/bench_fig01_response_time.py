"""Figure 1: Minecraft response time in the AWS cloud, Control vs Farm."""

from conftest import DURATION_S, assert_findings

from repro.analysis import fig1_response_time
from repro.reporting.text import format_table


def test_fig1_response_time(benchmark, out_dir):
    result = benchmark.pedantic(
        fig1_response_time, kwargs={"duration_s": DURATION_S}
    )
    table = format_table(
        ["workload", "median ms", "p95 ms", "max ms", ">60ms", ">118ms"],
        [
            [r["workload"], f"{r['median_ms']:.1f}", f"{r['p95_ms']:.1f}",
             f"{r['max_ms']:.1f}", f"{r['frac_noticeable']:.1%}",
             f"{r['frac_unplayable']:.1%}"]
            for r in result.rows
        ],
    )
    assert_findings(result, "fig01_response_time.txt", table)
