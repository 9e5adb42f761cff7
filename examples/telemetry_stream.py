"""Streaming telemetry demo: live statistics beside the series they summarize.

Runs one iteration and prints what the streaming tap folded tick by tick
— exact moments and ISR, sketched quantiles, per-window CoV, and the
warmup→steady-state boundary — next to the same statistics computed
from the raw tick series the iteration also keeps.

Usage::

    python examples/telemetry_stream.py [workload] [server] [env] [secs]
"""

import sys

from repro.core import run_iteration


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "farm"
    server = sys.argv[2] if len(sys.argv) > 2 else "vanilla"
    environment = sys.argv[3] if len(sys.argv) > 3 else "aws-t3.large"
    duration_s = float(sys.argv[4]) if len(sys.argv) > 4 else 120.0

    result = run_iteration(
        workload, server, environment, duration_s=duration_s, seed=42
    )
    tick = result.telemetry["tick"]
    snap = tick["tick_ms"]
    windows = tick["windows"]
    raw = result.tick_stats()

    print(f"{workload}/{server} on {environment}, {duration_s:.0f}s:")
    print(f"  {'':16} {'streaming':>10} {'raw series':>10}")
    rows = [
        ("ticks", tick["ticks"], len(result.tick_durations_ms)),
        ("isr", tick["isr"], result.isr),
        ("mean ms", snap["mean"], raw["mean"]),
        ("std ms", snap["std"], raw["std"]),
        ("p50 ms", snap["p50"], raw["median"]),
        ("p95 ms", snap["p95"], raw["p95"]),
        ("max ms", snap["max"], raw["max"]),
    ]
    for label, streamed, exact in rows:
        print(f"  {label:16} {streamed:>10.4g} {exact:>10.4g}")
    over = sum(t > 50.0 for t in result.tick_durations_ms)
    print(
        f"  {'>50ms ticks %':16} {100 * snap['frac_over_budget']:>10.4g} "
        f"{100 * over / len(result.tick_durations_ms):>10.4g}"
    )
    print("  (quantiles stream from a sketch; the rest is exact)")
    if windows["steady"]:
        print(
            f"  steady state     after {windows['warmup_samples']} ticks "
            f"(window {windows['steady_since_window']})"
        )
    else:
        print(f"  steady state     not reached in {windows['n_windows']} windows")
    covs = windows["recent_covs"]
    if covs:
        print(f"  window CoV tail  {' '.join(f'{c:.2f}' for c in covs[-8:])}")
    print(f"  recent ticks     {[round(t, 1) for t in snap['tail'][-10:]]}")


if __name__ == "__main__":
    main()
