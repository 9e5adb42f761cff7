"""Figure 8 / MF2: environment-based workloads cause significant
performance variability.

ISR for every (MLG, workload) pair on AWS 2-core, DAS-5 2-core, and DAS-5
16-core.  Paper shapes: Farm/TNT/Lag above Control for every game in every
environment (except PaperMC on AWS staying low), the Lag workload in the
0.85-1.0 band on DAS-5, and all three games crashing under Lag on AWS.
"""

from conftest import DURATION_S, write_artifact

from repro.analysis import PAPER, fig8_isr_grid
from repro.reporting.text import format_table


def test_fig8_mf2_isr_grid(benchmark, out_dir):
    result = benchmark.pedantic(
        fig8_isr_grid,
        kwargs={"duration_s": max(DURATION_S, 60.0)},
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            r["environment"],
            r["workload"],
            r["server"],
            "CRASH" if r["crashed"] else f"{r['isr']:.4f}",
            f"{r['tick_mean_ms']:.1f}",
            f"{r['tick_max_ms']:.0f}",
        ]
        for r in result.rows
    ]
    text = format_table(
        ["environment", "workload", "server", "ISR", "tick mean", "tick max"],
        rows,
    )
    text += (
        "\n\npaper: env workloads raise ISR by 0.04..0.92; Lag sits in the "
        "0.85-1.00 band on DAS-5 and crashes all three MLGs on AWS; "
        "overload reaches ~58x the 50 ms budget."
    )
    write_artifact("fig08_mf2_isr_grid.txt", text)

    cells = {
        (r["environment"], r["workload"], r["server"]): r for r in result.rows
    }

    # Lag crashes all three MLGs on AWS (the paper's missing data points).
    for server in ("vanilla", "forge", "papermc"):
        assert cells[("aws-t3.large", "lag", server)]["crashed"], server

    # Lag is stable but extremely unstable-ISR on DAS-5.
    lo, hi = PAPER["fig8"]["lag_isr_band_das5"]
    for environment in ("das5-2core", "das5-16core"):
        for server in ("vanilla", "forge", "papermc"):
            cell = cells[(environment, "lag", server)]
            assert not cell["crashed"], (environment, server)
            assert lo - 0.08 <= cell["isr"] <= hi, (environment, server, cell)

    # Environment workloads (farm, tnt) beat Control's ISR for
    # vanilla/forge everywhere; PaperMC's TNT/Farm optimizations keep it
    # low on AWS (the paper's exception).
    for environment in ("das5-2core", "aws-t3.large"):
        for server in ("vanilla", "forge"):
            control_isr = cells[(environment, "control", server)]["isr"]
            for workload in ("farm", "tnt"):
                assert (
                    cells[(environment, workload, server)]["isr"]
                    > control_isr
                ), (environment, workload, server)

    # Overload factor: TNT peaks tens of times the 50 ms budget on AWS.
    vanilla_tnt = cells[("aws-t3.large", "tnt", "vanilla")]
    assert vanilla_tnt["tick_max_ms"] > 20 * 50.0
