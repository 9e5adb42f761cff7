"""Figure 12 / MF5: TNT tick time and ISR on AWS t3.large (L), t3.xlarge
(XL), and t3.2xlarge (2XL)."""

from conftest import DURATION_S, assert_findings

from repro.analysis import fig12_node_sizes
from repro.reporting.text import format_table


def test_fig12_mf5_node_sizes(benchmark, out_dir):
    result = benchmark.pedantic(
        fig12_node_sizes, kwargs={"duration_s": max(DURATION_S, 60.0)}
    )
    table = format_table(
        ["node", "server", "tick mean", "median", "p75", "ISR"],
        [
            [r["node"], r["server"], f"{r['tick_mean_ms']:.1f}",
             f"{r['tick_median_ms']:.1f}", f"{r['tick_p75_ms']:.1f}",
             f"{r['isr']:.4f}"]
            for r in result.rows
        ],
    )
    assert_findings(result, "fig12_mf5_node_sizes.txt", table)
