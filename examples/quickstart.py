#!/usr/bin/env python
"""Quickstart: benchmark one MLG server under one workload.

Runs the Farm workload on vanilla Minecraft hosted on an AWS t3.large,
prints tick statistics, the Instability Ratio, and an ASCII view of the
tick-duration trace — the minimal Meterstick loop.

Usage::

    python examples/quickstart.py [workload] [server] [environment]
"""

import sys

from repro.core import run_iteration
from repro.reporting.text import ascii_timeseries
from repro.metrics import NOTICEABLE_MS, UNPLAYABLE_MS
from repro.mlg.constants import TICK_BUDGET_MS


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "farm"
    server = sys.argv[2] if len(sys.argv) > 2 else "vanilla"
    environment = sys.argv[3] if len(sys.argv) > 3 else "aws-t3.large"

    print(f"Running {workload!r} on {server} in {environment} (60 s) ...")
    result = run_iteration(
        workload, server, environment, duration_s=60.0, seed=42
    )

    tick = result.tick_stats()
    print(f"\nTick durations [ms]:")
    print(f"  mean {tick['mean']:.1f}   median {tick['p50']:.1f}   "
          f"p95 {tick['p95']:.1f}   max {tick['max']:.0f}")
    print(f"  Instability Ratio (ISR): {result.isr:.4f}")
    print(f"  overloaded (> {TICK_BUDGET_MS:.0f} ms): "
          f"{100 * tick['frac_over_budget']:.1f}% of ticks")

    response = result.response_stats()
    if response:
        print(f"\nResponse times [ms] (chat probe):")
        print(f"  median {response['p50']:.1f}   p95 {response['p95']:.1f}"
              f"   max {response['max']:.0f}")
        print(f"  > noticeable ({NOTICEABLE_MS:.0f} ms): "
              f"{100 * response['frac_over_noticeable']:.1f}%"
              f"   > unplayable ({UNPLAYABLE_MS:.0f} ms): "
              f"{100 * response['frac_over_unplayable']:.1f}%")

    if result.crashed:
        print(f"\nSERVER CRASHED: {result.crash_reason}")

    print("\nTick trace (one char per ~bucket, darker = longer):")
    print(" ", ascii_timeseries(result.tick_durations_ms, width=76,
                                height_label=" ms"))


if __name__ == "__main__":
    main()
