"""Figure 9: tick time over time on AWS (Control, Farm, TNT, Players)."""

from conftest import DURATION_S, assert_findings

from repro.analysis import fig9_tick_timeseries
from repro.reporting.text import ascii_timeseries, format_table


def test_fig9_tick_timeseries(benchmark, out_dir):
    result = benchmark.pedantic(
        fig9_tick_timeseries, kwargs={"duration_s": max(DURATION_S, 60.0)}
    )
    series = "\n".join(
        f"{r['workload'] + '/' + r['server']:20s} "
        f"{ascii_timeseries(r['series'], width=70, height_label='ms')}"
        for r in result.rows
    )
    table = format_table(
        ["workload", "server", "peak ms", ">50ms ticks"],
        [
            [r["workload"], r["server"], f"{r['peak_ms']:.0f}",
             f"{r['overloaded_fraction']:.1%}"]
            for r in result.rows
        ],
    )
    text = f"{series}\n\n{table}"
    assert_findings(result, "fig09_tick_timeseries.txt", text)
