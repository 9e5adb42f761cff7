#!/usr/bin/env python
"""ISR metric analysis: why order matters (the paper's §4 / Figure 6).

Builds synthetic tick traces with identical *distributions* but different
*orderings* and compares ISR against standard deviation, Allan variance,
and RFC 3550 jitter; then sweeps the closed-form model ISR(s, lambda).
"""

import numpy as np

from repro.reporting.text import format_table
from repro.metrics import (
    allan_variance,
    clustered_outlier_trace,
    instability_ratio,
    isr_closed_form,
    periodic_outlier_trace,
    rfc3550_jitter,
    spread_outlier_trace,
)

BUDGET_MS = 50.0


def main() -> None:
    clustered = clustered_outlier_trace(1000, 5, 20.0)
    spread = spread_outlier_trace(1000, 5, 20.0)
    assert sorted(clustered) == sorted(spread)

    print("Two 1000-tick traces, 5 outliers of 1000 ms each;")
    print("identical distributions, different order:\n")
    print(format_table(
        ["metric", "outliers clustered", "outliers spread", "verdict"],
        [
            ["std dev [ms]", f"{np.std(clustered):.2f}",
             f"{np.std(spread):.2f}", "blind to order"],
            ["Allan variance", f"{allan_variance(list(clustered)):.0f}",
             f"{allan_variance(list(spread)):.0f}", "order-aware"],
            ["RFC3550 jitter [ms]", f"{rfc3550_jitter(list(clustered)):.2f}",
             f"{rfc3550_jitter(list(spread)):.2f}",
             "order-aware, not normalized"],
            ["ISR", f"{instability_ratio(clustered, BUDGET_MS):.4f}",
             f"{instability_ratio(spread, BUDGET_MS):.4f}",
             "order-aware, in [0, 1]"],
        ],
    ))

    print("\nClosed-form ISR(s, lambda) = (s-1)/(s+lambda-1):")
    rows = []
    for s in (2, 10, 20):
        row = [f"s={s}"]
        for lam in (2, 5, 10, 25, 50, 100):
            model = isr_closed_form(s, lam)
            measured = instability_ratio(
                periodic_outlier_trace(lam * 200, lam, s), BUDGET_MS
            )
            row.append(f"{model:.3f}/{measured:.3f}")
        rows.append(row)
    print(format_table(
        ["curve (model/measured)", "lam=2", "5", "10", "25", "50", "100"],
        rows,
    ))
    print("\nPaper's worked example: s=10, lambda=25 ->"
          f" ISR = {isr_closed_form(10, 25):.2f} (paper: 0.26)")


if __name__ == "__main__":
    main()
