"""Table 8 / MF4: entity-related share of server-to-client traffic.

"Computation" = share of message count, "Communication" = share of bytes.
Paper shapes: entity updates dominate the message count (~90-97%) in every
configuration except PaperMC on Farm (47.5%, thanks to item merging and
batched entity sends), while contributing only a small share of the bytes
(chunk data dominates bytes).
"""

from conftest import DURATION_S, write_artifact

from repro.analysis import PAPER, table8_network_shares
from repro.reporting.text import format_table


def test_table8_network_messages(benchmark, out_dir):
    result = benchmark.pedantic(
        table8_network_shares,
        kwargs={"duration_s": DURATION_S},
        rounds=1,
        iterations=1,
    )
    expected = PAPER["table8"]
    rows = []
    for row in result.rows:
        paper_msg, paper_bytes = expected[(row["workload"], row["server"])]
        rows.append(
            [
                row["server"],
                row["workload"],
                f"{row['message_share_pct']:.1f}",
                f"{paper_msg:.1f}",
                f"{row['byte_share_pct']:.1f}",
                f"{paper_bytes:.1f}",
            ]
        )
    text = format_table(
        [
            "server",
            "workload",
            "msgs% (ours)",
            "msgs% (paper)",
            "bytes% (ours)",
            "bytes% (paper)",
        ],
        rows,
    )
    write_artifact("table8_network_messages.txt", text)

    cells = {(r["workload"], r["server"]): r for r in result.rows}

    # Entity messages dominate the count everywhere except PaperMC/Farm.
    for (workload, server), row in cells.items():
        if (workload, server) == ("farm", "papermc"):
            continue
        assert row["message_share_pct"] > 60.0, (workload, server, row)

    # PaperMC's Farm share drops below vanilla's (item merging + batched
    # entity sends).  The paper measures a much larger gap (47.5% vs
    # 91.7%); our simulator reproduces the direction, not the magnitude —
    # listed under README's *Known deviations*.
    papermc_farm = cells[("farm", "papermc")]
    vanilla_farm = cells[("farm", "vanilla")]
    assert papermc_farm["message_share_pct"] < vanilla_farm[
        "message_share_pct"
    ]
    # Per workload, PaperMC always sends the smallest entity share.
    for workload in ("control", "farm", "tnt"):
        assert cells[(workload, "papermc")]["message_share_pct"] == min(
            cells[(workload, s)]["message_share_pct"]
            for s in ("vanilla", "forge", "papermc")
        ), workload

    # Bytes are dominated by non-entity traffic (chunk data) everywhere:
    # the byte share sits far below the message share.
    for (workload, server), row in cells.items():
        assert row["byte_share_pct"] < 0.55 * row["message_share_pct"], (
            workload,
            server,
            row,
        )

    # PaperMC sends a smaller entity byte share on the steady workloads
    # (under TNT its faster ticks advance the chain further, which evens
    # the byte comparison out — a simulator artifact listed under
    # README's *Known deviations*).
    for workload in ("control", "farm"):
        assert (
            cells[(workload, "papermc")]["byte_share_pct"]
            <= cells[(workload, "vanilla")]["byte_share_pct"] + 1.0
        )
