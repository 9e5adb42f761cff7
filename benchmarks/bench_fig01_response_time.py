"""Figure 1: Minecraft response time in the AWS cloud (Control vs Farm).

The paper's opening result: even with a single connected player, response
time varies from good (< 60 ms) to unplayable (> 118 ms) once the Farm
world's simulated constructs are running.
"""

from conftest import DURATION_S, write_artifact

from repro.analysis import PAPER, fig1_response_time
from repro.reporting.text import format_table
from repro.metrics import NOTICEABLE_MS, UNPLAYABLE_MS


def test_fig1_response_time(benchmark, out_dir):
    result = benchmark.pedantic(
        fig1_response_time,
        kwargs={"duration_s": DURATION_S},
        rounds=1,
        iterations=1,
    )
    rows = []
    for row in result.rows:
        rows.append(
            [
                row["workload"],
                f"{row['median_ms']:.1f}",
                f"{row['p95_ms']:.1f}",
                f"{row['max_ms']:.1f}",
                f"{100 * row['frac_noticeable']:.1f}%",
                f"{100 * row['frac_unplayable']:.1f}%",
            ]
        )
    text = format_table(
        ["workload", "median ms", "p95 ms", "max ms", ">60ms", ">118ms"],
        rows,
    )
    text += (
        f"\n\npaper: Control stays below the noticeable line ({NOTICEABLE_MS}"
        f" ms) while Farm pushes response time toward/past unplayable "
        f"({UNPLAYABLE_MS} ms)."
    )
    write_artifact("fig01_response_time.txt", text)

    control, farm = result.rows
    # Shape: the Farm workload degrades response time vs Control.
    assert farm["median_ms"] > control["median_ms"]
    assert farm["p95_ms"] > control["p95_ms"]
    # Control's typical response is playable; Farm exceeds noticeable
    # for a visible fraction of actions.
    assert control["median_ms"] < UNPLAYABLE_MS
    assert farm["frac_noticeable"] > control["frac_noticeable"]
