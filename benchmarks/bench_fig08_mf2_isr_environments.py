"""Figure 8 / MF2: ISR for every (MLG, workload) pair on AWS 2-core, DAS-5
2-core, and DAS-5 16-core."""

from conftest import DURATION_S, assert_findings

from repro.analysis import fig8_isr_grid
from repro.reporting.text import format_table


def test_fig8_mf2_isr_grid(benchmark, out_dir):
    result = benchmark.pedantic(
        fig8_isr_grid, kwargs={"duration_s": max(DURATION_S, 60.0)}
    )
    table = format_table(
        ["environment", "workload", "server", "ISR", "tick mean", "tick max"],
        [
            [r["environment"], r["workload"], r["server"],
             "CRASH" if r["crashed"] else f"{r['isr']:.4f}",
             f"{r['tick_mean_ms']:.1f}", f"{r['tick_max_ms']:.0f}"]
            for r in result.rows
        ],
    )
    assert_findings(result, "fig08_mf2_isr_grid.txt", table)
