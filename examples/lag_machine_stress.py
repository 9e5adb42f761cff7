#!/usr/bin/env python
"""Lag-machine stress test: watch a griefing construct kill a cloud server.

Runs the Lag workload on DAS-5 (self-hosted: survives with extreme but
stable alternation) and on a warm AWS t3.large (credit-throttled: the
update storm compounds until every client times out and the server stops).
Demonstrates the paper's §5.3 crash and the every-other-tick ISR pattern.
"""

from repro.cloud import get_environment
from repro.core import run_iteration
from repro.reporting.text import ascii_timeseries
from repro.simtime import SimClock


def run(environment: str, warm: bool) -> None:
    env = get_environment(environment)
    machine = env.create_machine(seed=3)
    if warm:
        machine.drain_credits()
    print(f"\n--- Lag workload on {environment}"
          f"{' (warm VM, credits drained)' if warm else ''} ---")
    result = run_iteration(
        "lag", "vanilla", environment, duration_s=60.0, seed=3,
        machine=machine, clock=SimClock(),
    )
    ticks = result.tick_durations_ms
    print(f"ticks executed: {len(ticks)}")
    print(f"tick mean {sum(ticks) / len(ticks):.0f} ms, "
          f"max {max(ticks):.0f} ms, ISR {result.isr:.3f}")
    pulses = ticks[2::2][:10]
    rests = ticks[3::2][:10]
    print(f"pulse ticks (every other): "
          f"{', '.join(f'{t:.0f}' for t in pulses)} ms")
    print(f"rest ticks in between:     "
          f"{', '.join(f'{t:.1f}' for t in rests)} ms")
    if result.crashed:
        print(f"SERVER CRASHED: {result.crash_reason}")
    else:
        print("server survived (stable alternation, maximal ISR)")
    print("trace:", ascii_timeseries(ticks, width=70, height_label=" ms"))


def main() -> None:
    run("das5-2core", warm=False)
    run("aws-t3.large", warm=True)
    print(
        "\nReading: the same construct that a dedicated 2-core node "
        "absorbs (at ISR ~0.9) spirals a burst-limited cloud node into a "
        "client-timeout crash — the paper's missing Lag/AWS data points."
    )


if __name__ == "__main__":
    main()
