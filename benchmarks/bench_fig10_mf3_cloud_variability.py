"""Figure 10 / MF3: per-iteration ISR and pooled tick times for the Players
workload on DAS-5, Azure, and AWS."""

from conftest import FIG10_DURATION_S, FIG10_ITERATIONS, assert_findings

from repro.analysis import fig10_cloud_variability
from repro.reporting.text import format_table


def test_fig10_mf3_cloud_variability(benchmark, out_dir):
    result = benchmark.pedantic(
        fig10_cloud_variability,
        kwargs={
            "iterations": FIG10_ITERATIONS,
            "duration_s": FIG10_DURATION_S,
        },
    )
    table = format_table(
        ["environment", "server", "ISR med", "ISR IQR", "tick med",
         "tick IQR"],
        [
            [r["environment"], r["server"], f"{r['isr_median']:.4f}",
             f"{r['isr_iqr']:.4f}", f"{r['tick_median_ms']:.1f}",
             f"{r['tick_iqr_ms']:.1f}"]
            for r in result.rows
        ],
    )
    assert_findings(result, "fig10_mf3_cloud_variability.txt", table)
