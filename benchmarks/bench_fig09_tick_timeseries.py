"""Figure 9: tick time over time on AWS (Control, Farm, TNT, Players).

Reproduces the time-series shapes: stable Control curves, high-frequency
Farm oscillation around the 50 ms line, TNT's huge low-frequency spikes
(2500+ ms for Minecraft/Forge), and PaperMC mostly under the threshold.
"""

import numpy as np
from conftest import DURATION_S, write_artifact

from repro.analysis import PAPER, fig9_tick_timeseries
from repro.reporting.text import ascii_timeseries, format_table


def test_fig9_tick_timeseries(benchmark, out_dir):
    result = benchmark.pedantic(
        fig9_tick_timeseries,
        kwargs={"duration_s": max(DURATION_S, 60.0)},
        rounds=1,
        iterations=1,
    )
    lines = []
    summary_rows = []
    for row in result.rows:
        label = f"{row['workload']}/{row['server']}"
        lines.append(
            f"{label:20s} {ascii_timeseries(row['series'], width=70, height_label='ms')}"
        )
        summary_rows.append(
            [
                row["workload"],
                row["server"],
                f"{row['peak_ms']:.0f}",
                f"{100 * row['overloaded_fraction']:.1f}%",
            ]
        )
    text = "\n".join(lines)
    text += "\n\n" + format_table(
        ["workload", "server", "peak ms", ">50ms ticks"], summary_rows
    )
    text += "\n\npaper: TNT exceeds 2500 ms for Minecraft and Forge; PaperMC"
    text += " tick durations frequently below 50 ms on Farm and TNT."
    write_artifact("fig09_tick_timeseries.txt", text)

    cells = {(r["workload"], r["server"]): r for r in result.rows}

    # TNT spikes reach the thousands of ms for vanilla/forge.
    assert cells[("tnt", "vanilla")]["peak_ms"] > 1000.0
    assert cells[("tnt", "forge")]["peak_ms"] > 1000.0
    # PaperMC stays mostly under the budget on Farm and TNT.
    assert cells[("farm", "papermc")]["overloaded_fraction"] < 0.35
    assert (
        cells[("tnt", "papermc")]["peak_ms"]
        < 0.4 * cells[("tnt", "vanilla")]["peak_ms"]
    )
    # Control is the calmest workload for every server (comparing steady
    # state, past the shared connect-time spike).
    for server in ("vanilla", "forge", "papermc"):
        assert (
            cells[("control", server)]["overloaded_fraction"]
            <= cells[("farm", server)]["overloaded_fraction"] + 0.02
        )
        assert (
            cells[("control", server)]["steady_peak_ms"]
            <= cells[("tnt", server)]["steady_peak_ms"]
        )
