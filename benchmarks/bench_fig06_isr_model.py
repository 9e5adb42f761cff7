"""Figure 6: numerical analysis of the Instability Ratio.

6a: ISR as a function of outlier period (lambda) for s in {2, 10, 20} —
closed form vs measured on synthetic traces.  6b: two traces with identical
distributions but different order, an order of magnitude apart in ISR.
"""

from conftest import assert_findings

from repro.analysis import fig6_isr_model
from repro.reporting.text import format_table


def test_fig6_isr_model(benchmark, out_dir):
    result = benchmark.pedantic(fig6_isr_model)
    table = format_table(
        ["curve", "ISR@lam=2", "lam=10", "lam=25", "lam=100"],
        [
            [f"s={r['s']}"]
            + [f"{r['closed_form'][lam - 1]:.3f}" for lam in (2, 10, 25, 100)]
            for r in result.rows if "s" in r
        ],
    )
    assert_findings(result, "fig06_isr_model.txt", table)
