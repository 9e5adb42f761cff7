"""Table 8 / MF4: entity-related share of server-to-client traffic.

"Computation" = share of message count, "Communication" = share of bytes.
README's *Known deviations* lists where the shares part from the paper's.
"""

from conftest import DURATION_S, assert_findings

from repro.analysis import PAPER, table8_network_shares
from repro.reporting.text import format_table


def test_table8_network_messages(benchmark, out_dir):
    result = benchmark.pedantic(
        table8_network_shares, kwargs={"duration_s": DURATION_S}
    )
    paper = PAPER["table8.entity_shares_pct"]
    table = format_table(
        ["server", "workload", "msgs% (ours)", "msgs% (paper)",
         "bytes% (ours)", "bytes% (paper)"],
        [
            [r["server"], r["workload"], f"{r['message_share_pct']:.1f}",
             paper[(r["workload"], r["server"])][0],
             f"{r['byte_share_pct']:.1f}",
             paper[(r["workload"], r["server"])][1]]
            for r in result.rows
        ],
    )
    assert_findings(result, "table8_network_messages.txt", table)
