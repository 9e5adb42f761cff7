"""Figure 6: numerical analysis of the Instability Ratio.

6a: ISR as a function of outlier period (lambda) for s in {2, 10, 20} —
closed form vs measured on synthetic traces.  6b: two traces with identical
distributions but different order, an order of magnitude apart in ISR.
"""

from conftest import write_artifact

from repro.analysis import PAPER, fig6_isr_model
from repro.reporting.text import format_table


def test_fig6_isr_model(benchmark, out_dir):
    result = benchmark.pedantic(fig6_isr_model, rounds=1, iterations=1)

    curve_rows = [r for r in result.rows if "s" in r]
    trace_row = next(r for r in result.rows if r.get("trace") == "fig6b")

    rows = []
    for row in curve_rows:
        closed = row["closed_form"]
        rows.append(
            [
                f"s={row['s']}",
                f"{closed[1]:.3f}",  # lam=2
                f"{closed[9]:.3f}",  # lam=10
                f"{closed[24]:.3f}",  # lam=25
                f"{closed[99]:.3f}",  # lam=100
            ]
        )
    text = format_table(
        ["curve", "ISR@lam=2", "lam=10", "lam=25", "lam=100"], rows
    )
    text += (
        f"\n\nfig6b (order dependence): low ISR = {trace_row['low_isr']:.4f},"
        f" high ISR = {trace_row['high_isr']:.4f}"
        f" (paper prints 0.009 / 0.15; its own Eq.1 model gives"
        f" ~0.017 / ~0.087 — we match the model and the magnitude gap)"
    )
    write_artifact("fig06_isr_model.txt", text)

    # Paper §4.2: s=10 every 25 ticks -> ISR = 0.26.
    s10 = next(r for r in curve_rows if r["s"] == 10)
    assert abs(s10["closed_form"][24] - PAPER["fig6"]["isr_s10_lam25"]) < 0.01
    # Spot measurements match the closed form.
    for row in curve_rows:
        for measured, lam in zip(row["spot_measured"], (2, 10, 25, 50, 100)):
            from repro.metrics import isr_closed_form

            assert abs(measured - isr_closed_form(row["s"], lam)) < 0.02
    # 6b: same distribution, ISR at least ~5x apart.
    assert trace_row["identical_distribution"]
    assert trace_row["high_isr"] > 4 * trace_row["low_isr"]
