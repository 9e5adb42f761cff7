"""Figure 7 / MF1: performance variability makes MLGs unplayable.

Response-time distributions on AWS for Minecraft and Forge under Control,
Farm, and TNT.  The paper's headline: mean/median look fine while maxima
run 10-20x the mean and far beyond the 118 ms unplayable threshold;
Control's outliers appear right after a player connects.
"""

from conftest import DURATION_S, write_artifact

from repro.analysis import PAPER, fig7_response_times
from repro.reporting.text import format_table
from repro.metrics import UNPLAYABLE_MS


def test_fig7_mf1_response_time(benchmark, out_dir):
    result = benchmark.pedantic(
        fig7_response_times,
        kwargs={"duration_s": DURATION_S},
        rounds=1,
        iterations=1,
    )
    rows = []
    for row in result.rows:
        rows.append(
            [
                row["workload"],
                row["server"],
                f"{row['mean_ms']:.1f}",
                f"{row['median_ms']:.1f}",
                f"{row['p95_ms']:.1f}",
                f"{row['max_ms']:.0f}",
                f"{row['max_over_mean']:.1f}x",
            ]
        )
    text = format_table(
        ["workload", "server", "mean", "median", "p95", "max", "max/mean"],
        rows,
    )
    text += (
        "\n\npaper: Control max 20.7x mean (Forge); TNT max labels 2718/2303"
        " ms; PaperMC omitted (async chat)."
    )
    write_artifact("fig07_mf1_response_time.txt", text)

    by_key = {(r["workload"], r["server"]): r for r in result.rows}

    # MF1 shape 1: the maximum dwarfs the mean under Control (connect
    # spike), by an order of magnitude.
    for server in ("vanilla", "forge"):
        control = by_key[("control", server)]
        assert control["max_over_mean"] > 5.0, (server, control)
        # Mean/median look playable...
        assert control["median_ms"] < UNPLAYABLE_MS
        # ...while the worst case is far beyond unplayable.
        assert control["max_ms"] > 2 * UNPLAYABLE_MS

    # MF1 shape 2: environment workloads degrade the tail further.
    for server in ("vanilla", "forge"):
        assert (
            by_key[("tnt", server)]["p95_ms"]
            > by_key[("farm", server)]["p95_ms"]
            > by_key[("control", server)]["p95_ms"]
        )

    # MF1 shape 3: TNT p95 exceeds the unplayable threshold many times over.
    for server in ("vanilla", "forge"):
        assert by_key[("tnt", server)]["p95_ms"] > 3 * UNPLAYABLE_MS
