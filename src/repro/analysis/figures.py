"""Figure/table reproduction drivers.

Each ``fig*``/``table*`` function runs the experiments behind one figure or
table of the paper's evaluation and returns a plain-data summary that the
benchmark harness renders (README's *Known deviations*, under
*Simulation fidelity*, lists where they miss the paper).  Durations and
iteration counts are parameters so the checked-in benchmarks can run
reduced-scale versions (`METERSTICK_FULL=1` restores paper scale).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.providers import get_environment
from repro.core.collectors import non_wait_shares
from repro.core.experiment import run_iteration
from repro.core.results import IterationResult
from repro.metrics import (
    instability_ratio,
    isr_closed_form,
    clustered_outlier_trace,
    periodic_outlier_trace,
    spread_outlier_trace,
)
from repro.mlg.constants import TICK_BUDGET_MS
from repro.simtime import SimClock
from repro.telemetry.summary import summarize

__all__ = [
    "FigureResult",
    "GRID_COLUMNS",
    "campaign_grid",
    "run_cell",
    "fig1_response_time",
    "fig6_isr_model",
    "fig7_response_times",
    "fig8_isr_grid",
    "fig9_tick_timeseries",
    "fig10_cloud_variability",
    "fig11_tick_distribution",
    "fig12_node_sizes",
    "table8_network_shares",
]

#: The three systems under test, in the paper's order.
SERVERS = ("vanilla", "forge", "papermc")


@dataclass
class FigureResult:
    """A reproduced figure: identifier, data rows, free-form notes."""

    figure: str
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def row(self, **kwargs) -> dict:
        self.rows.append(kwargs)
        return kwargs


def run_cell(
    workload: str,
    server: str,
    environment: str,
    duration_s: float,
    seed: int = 7,
    warm: bool = True,
    scale: float = 1.0,
) -> IterationResult:
    """Run one (workload, server, environment) cell on a warm machine.

    ``warm`` models the paper's measurement sessions, where configurations
    run back-to-back on nodes whose burst credits are long gone.
    """
    env = get_environment(environment)
    machine = env.create_machine(seed=seed)
    if warm:
        machine.drain_credits()
    return run_iteration(
        workload,
        server,
        environment,
        duration_s=duration_s,
        seed=seed,
        scale=scale,
        machine=machine,
        clock=SimClock(),
    )


# -- Figure 1: Minecraft response time on AWS (Control vs Farm) -------------


def fig1_response_time(duration_s: float = 60.0, seed: int = 7) -> FigureResult:
    result = FigureResult("fig1")
    for workload in ("control", "farm"):
        cell = run_cell(workload, "vanilla", "aws-t3.large", duration_s, seed)
        stats = cell.response_stats()
        result.row(
            workload=workload,
            median_ms=stats["p50"],
            p95_ms=stats["p95"],
            max_ms=stats["max"],
            mean_ms=stats["mean"],
            frac_noticeable=stats["frac_over_noticeable"],
            frac_unplayable=stats["frac_over_unplayable"],
        )
    return result


# -- Figure 6: ISR analytic model ---------------------------------------------


def fig6_isr_model() -> FigureResult:
    result = FigureResult("fig6")
    lams = list(range(1, 101))
    for s in (2, 10, 20):
        closed = [isr_closed_form(s, lam) for lam in lams]
        measured = [
            instability_ratio(
                periodic_outlier_trace(lam * 200, lam, s), TICK_BUDGET_MS
            )
            for lam in (2, 10, 25, 50, 100)
        ]
        result.row(s=s, lams=lams, closed_form=closed,
                   spot_measured=measured)
    low = clustered_outlier_trace(1000, 5, 20.0)
    high = spread_outlier_trace(1000, 5, 20.0)
    result.row(
        trace="fig6b",
        low_isr=instability_ratio(low, TICK_BUDGET_MS),
        high_isr=instability_ratio(high, TICK_BUDGET_MS),
        identical_distribution=sorted(low) == sorted(high),
    )
    return result


# -- Figure 7 / MF1: response time per workload on AWS -----------------------


def fig7_response_times(
    duration_s: float = 60.0, seed: int = 7
) -> FigureResult:
    result = FigureResult("fig7")
    result.notes.append(
        "PaperMC omitted (async chat thread), as in the paper"
    )
    for workload in ("control", "farm", "tnt"):
        for server in ("vanilla", "forge"):
            cell = run_cell(workload, server, "aws-t3.large", duration_s, seed)
            stats = cell.response_stats()
            result.row(
                workload=workload,
                server=server,
                mean_ms=stats["mean"],
                median_ms=stats["p50"],
                p95_ms=stats["p95"],
                max_ms=stats["max"],
                iqr_ms=stats["p75"] - stats["p25"],
                max_over_mean=stats["max"] / stats["mean"],
                frac_noticeable=stats["frac_over_noticeable"],
                frac_unplayable=stats["frac_over_unplayable"],
            )
    return result


# -- Figure 8 / MF2: ISR grid ---------------------------------------------------


def fig8_isr_grid(duration_s: float = 60.0, seed: int = 7) -> FigureResult:
    result = FigureResult("fig8")
    environments = ("das5-16core", "das5-2core", "aws-t3.large")
    workloads = ("control", "farm", "tnt", "lag", "players")
    for environment in environments:
        for workload in workloads:
            for server in SERVERS:
                cell = run_cell(workload, server, environment, duration_s, seed)
                stats = cell.tick_stats()
                result.row(
                    environment=environment,
                    workload=workload,
                    server=server,
                    isr=cell.isr,
                    crashed=cell.crashed,
                    tick_mean_ms=stats["mean"],
                    tick_max_ms=stats["max"],
                )
    return result


# -- Figure 9: tick-time series on AWS ------------------------------------------


def fig9_tick_timeseries(
    duration_s: float = 60.0, seed: int = 7
) -> FigureResult:
    result = FigureResult("fig9")
    for workload in ("control", "farm", "tnt", "players"):
        for server in SERVERS:
            cell = run_cell(workload, server, "aws-t3.large", duration_s, seed)
            durations = cell.tick_durations_ms
            stats = cell.tick_stats()
            result.row(
                workload=workload,
                server=server,
                series=durations,
                overloaded_fraction=stats["frac_over_budget"],
                peak_ms=stats["max"],
                steady_peak_ms=max(durations[120:] or durations),
            )
    return result


# -- Figure 10 / MF3: cloud vs self-hosted across iterations ---------------------


def fig10_cloud_variability(
    iterations: int = 12, duration_s: float = 40.0, seed: int = 3
) -> FigureResult:
    from repro.core.config import MeterstickConfig
    from repro.core.experiment import ExperimentRunner

    result = FigureResult("fig10")
    for environment in ("das5-2core", "azure-d2v3", "aws-t3.large"):
        config = MeterstickConfig(
            world="players",
            environment=environment,
            iterations=iterations,
            duration_s=duration_s,
            warm_machines=True,
            seed=seed,
        )
        campaign = ExperimentRunner(config).run()
        for server in SERVERS:
            isrs = summarize(campaign.isr_values(server))
            ticks = summarize(campaign.pooled_tick_durations(server))
            result.row(
                environment=environment,
                server=server,
                isr_median=isrs["p50"],
                isr_iqr=isrs["p75"] - isrs["p25"],
                isr_min=isrs["min"],
                isr_max=isrs["max"],
                tick_median_ms=ticks["p50"],
                tick_iqr_ms=ticks["p75"] - ticks["p25"],
            )
    return result


# -- Figure 11 / MF4: tick-time distribution by operation ------------------------


def fig11_tick_distribution(
    duration_s: float = 60.0, seed: int = 7
) -> FigureResult:
    result = FigureResult("fig11")
    for workload in ("control", "farm", "tnt"):
        for server in SERVERS:
            cell = run_cell(workload, server, "aws-t3.large", duration_s, seed)
            shares = cell.tick_distribution
            active = non_wait_shares(shares)
            result.row(
                workload=workload,
                server=server,
                shares=shares,
                entity_share_of_non_wait=active.get("Entities", 0.0),
            )
    return result


# -- Figure 12 / MF5: AWS node sizes under TNT -----------------------------------


def fig12_node_sizes(duration_s: float = 60.0, seed: int = 7) -> FigureResult:
    result = FigureResult("fig12")
    for environment, label in (
        ("aws-t3.large", "L"),
        ("aws-t3.xlarge", "XL"),
        ("aws-t3.2xlarge", "2XL"),
    ):
        for server in SERVERS:
            cell = run_cell("tnt", server, environment, duration_s, seed)
            stats = cell.tick_stats()
            result.row(
                node=label,
                server=server,
                tick_mean_ms=stats["mean"],
                tick_median_ms=stats["p50"],
                tick_p75_ms=stats["p75"],
                isr=cell.isr,
            )
    return result


# -- Campaign results: the Fig.-8-style ISR grid from measured data --------------


#: The campaign grid's columns, in CSV order.
GRID_COLUMNS = (
    "environment",
    "workload",
    "server",
    "scale",
    "n_bots",
    "behavior",
    "iteration",
    "isr",
    "crashed",
    "tick_mean_ms",
    "tick_p95_ms",
    "tick_max_ms",
    "throttled_ticks",
)


def campaign_grid(rows: list[dict]) -> FigureResult:
    """Fig. 8's (environment × workload × server) ISR grid over report
    rows, one per measured iteration, instead of fresh runs.

    ``repro report`` passes the rows it read from the telemetry
    sidecars (:func:`repro.reporting.dataset.sidecar_row`); ``repro
    export`` passes the same rows read from the merged shards
    (:func:`repro.reporting.dataset.iteration_row`), which add the
    shard-only ``throttled_ticks`` — so the two CSVs agree value for
    value, and a sidecar row's ``throttled_ticks`` renders empty.
    """
    grid = FigureResult("campaign")
    for row in rows:
        grid.row(**{column: row.get(column) for column in GRID_COLUMNS})
    return grid


# -- Table 8 / MF4: entity share of network traffic ------------------------------


def table8_network_shares(
    duration_s: float = 60.0, seed: int = 7
) -> FigureResult:
    result = FigureResult("table8")
    for server in SERVERS:
        for workload in ("control", "farm", "tnt"):
            cell = run_cell(workload, server, "aws-t3.large", duration_s, seed)
            result.row(
                server=server,
                workload=workload,
                message_share_pct=100.0 * cell.entity_message_share,
                byte_share_pct=100.0 * cell.entity_byte_share,
            )
    return result
