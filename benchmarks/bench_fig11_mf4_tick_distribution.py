"""Figure 11 / MF4: share of tick time per operation category on AWS."""

from conftest import DURATION_S, assert_findings

from repro.analysis import fig11_tick_distribution
from repro.reporting.text import format_table

BUCKETS = ("Block Add/Remove", "Block Update", "Entities", "Wait Before",
           "Wait After", "Other")


def test_fig11_mf4_tick_distribution(benchmark, out_dir):
    result = benchmark.pedantic(
        fig11_tick_distribution, kwargs={"duration_s": DURATION_S}
    )
    table = format_table(
        ["workload", "server", *BUCKETS, "entities (non-wait)"],
        [
            [r["workload"], r["server"]]
            + [f"{r['shares'].get(bucket, 0.0):.1%}" for bucket in BUCKETS]
            + [f"{r['entity_share_of_non_wait']:.1%}"]
            for r in result.rows
        ],
    )
    assert_findings(result, "fig11_mf4_tick_distribution.txt", table)
