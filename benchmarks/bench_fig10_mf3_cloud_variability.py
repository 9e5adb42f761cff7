"""Figure 10 / MF3: MLGs exhibit increased variability in commercial clouds.

Distribution of per-iteration ISR and pooled tick times for the Players
workload on DAS-5, Azure, and AWS.  Paper shapes: DAS-5 has the lowest
median ISR and the smallest IQRs; the minimum cloud ISR exceeds the
maximum DAS-5 ISR; no game is best everywhere (AWS favors Minecraft and
Forge, Azure favors PaperMC); PaperMC on AWS is the worst combination
(median ISR 0.094, median tick 48.98 ms).
"""

from conftest import FIG10_DURATION_S, FIG10_ITERATIONS, write_artifact

from repro.analysis import PAPER, fig10_cloud_variability
from repro.reporting.text import format_table


def test_fig10_mf3_cloud_variability(benchmark, out_dir):
    result = benchmark.pedantic(
        fig10_cloud_variability,
        kwargs={
            "iterations": FIG10_ITERATIONS,
            "duration_s": FIG10_DURATION_S,
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            r["environment"],
            r["server"],
            f"{r['isr_median']:.4f}",
            f"{r['isr_iqr']:.4f}",
            f"{r['tick_median_ms']:.1f}",
            f"{r['tick_iqr_ms']:.1f}",
        ]
        for r in result.rows
    ]
    text = format_table(
        ["environment", "server", "ISR med", "ISR IQR", "tick med", "tick IQR"],
        rows,
    )
    text += (
        "\n\npaper: max DAS-5 ISR 0.021 < min cloud ISR 0.029; PaperMC-AWS"
        " median ISR 0.094 / median tick 48.98 ms; AWS better for"
        " Minecraft+Forge, Azure better for PaperMC."
    )
    write_artifact("fig10_mf3_cloud_variability.txt", text)

    cells = {(r["environment"], r["server"]): r for r in result.rows}
    servers = ("vanilla", "forge", "papermc")

    # DAS-5 is the most stable for every game.
    for server in servers:
        das5 = cells[("das5-2core", server)]
        for cloud in ("azure-d2v3", "aws-t3.large"):
            assert cells[(cloud, server)]["isr_median"] > das5["isr_median"]
            assert cells[(cloud, server)]["tick_iqr_ms"] > das5["tick_iqr_ms"]

    # The minimum cloud ISR exceeds the maximum DAS-5 ISR.  The strict
    # min/max form needs the paper's 50 iterations to be stable; at
    # reduced scale we assert the robust form (every cloud median beats
    # every DAS-5 median with headroom).
    das5_max = max(cells[("das5-2core", s)]["isr_max"] for s in servers)
    cloud_min = min(
        cells[(env, s)]["isr_min"]
        for env in ("azure-d2v3", "aws-t3.large")
        for s in servers
    )
    from conftest import FULL

    if FULL:
        assert cloud_min > das5_max, (cloud_min, das5_max)
    das5_med_max = max(
        cells[("das5-2core", s)]["isr_median"] for s in servers
    )
    cloud_med_min = min(
        cells[(env, s)]["isr_median"]
        for env in ("azure-d2v3", "aws-t3.large")
        for s in servers
    )
    assert cloud_med_min > das5_med_max, (cloud_med_min, das5_med_max)

    # No game is best everywhere: AWS favors vanilla/forge, Azure PaperMC.
    for server in ("vanilla", "forge"):
        assert (
            cells[("aws-t3.large", server)]["isr_median"]
            < cells[("azure-d2v3", server)]["isr_median"]
        ), server
    assert (
        cells[("azure-d2v3", "papermc")]["isr_median"]
        < cells[("aws-t3.large", "papermc")]["isr_median"]
    )

    # PaperMC-on-AWS: the worst AWS citizen, hovering at the tick budget.
    # The strict "highest median ISR" ordering needs the paper's 50
    # iterations; at reduced scale PaperMC must still sit within 20% of
    # the worst AWS median while having by far the highest tick median.
    papermc_aws = cells[("aws-t3.large", "papermc")]
    worst_aws_isr = max(
        cells[("aws-t3.large", s)]["isr_median"] for s in servers
    )
    if FULL:
        assert papermc_aws["isr_median"] == worst_aws_isr
    assert papermc_aws["isr_median"] >= 0.8 * worst_aws_isr
    assert papermc_aws["tick_median_ms"] == max(
        cells[("aws-t3.large", s)]["tick_median_ms"] for s in servers
    )
    assert 35.0 < papermc_aws["tick_median_ms"] < 70.0

    # PaperMC has the lowest median ISR on DAS-5 (paper: 0.007 vs 0.010).
    assert cells[("das5-2core", "papermc")]["isr_median"] == min(
        cells[("das5-2core", s)]["isr_median"] for s in servers
    )
