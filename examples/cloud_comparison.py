#!/usr/bin/env python
"""Cloud vs self-hosted comparison (the paper's MF3 / insight I3).

Runs the Players workload (25 bots) for several iterations on DAS-5, Azure
and AWS for all three server variants, then prints ISR and tick-time box
plots per environment — the data a game operator needs to pick a host.
"""

from repro.core import ExperimentRunner, MeterstickConfig
from repro.reporting.text import ascii_boxplot, format_table

ENVIRONMENTS = ("das5-2core", "azure-d2v3", "aws-t3.large")
SERVERS = ("vanilla", "forge", "papermc")


def main() -> None:
    rows = []
    tick_series = []
    for environment in ENVIRONMENTS:
        config = MeterstickConfig(
            world="players",
            environment=environment,
            iterations=4,
            duration_s=30.0,
            warm_machines=True,
            seed=11,
        )
        print(f"Benchmarking {environment} "
              f"({config.iterations} x {config.duration_s:.0f} s) ...")
        campaign = ExperimentRunner(config).run()
        for server in SERVERS:
            isrs = campaign.isr_values(server)
            ticks = campaign.pooled_tick_durations(server)
            rows.append(
                [
                    environment,
                    server,
                    f"{sorted(isrs)[len(isrs) // 2]:.4f}",
                    f"{max(isrs):.4f}",
                    f"{sum(ticks) / len(ticks):.1f}",
                ]
            )
            tick_series.append((f"{environment[:10]}/{server[:7]}", ticks))

    print("\nPer-iteration ISR and pooled tick times:")
    print(format_table(
        ["environment", "server", "ISR median", "ISR max", "tick mean ms"],
        rows,
    ))
    print("\nTick-time distributions:")
    print(ascii_boxplot(tick_series, width=56, lo=0.0, hi=120.0))
    print(
        "\nReading: self-hosting (DAS-5) is the most stable for every "
        "server; no single game is best on both clouds — pick the cloud "
        "for your MLG (paper insight I3)."
    )


if __name__ == "__main__":
    main()
