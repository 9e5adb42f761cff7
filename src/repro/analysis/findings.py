"""The paper's findings, declared once, as data.

Each :class:`Finding` is one assertion of the paper (MF1–MF5, Figs. 1 and
6–12, Tables 2, 6, 7 and 8) about the plain ``FigureResult.rows`` of the
driver named by its ``figure``, which :mod:`repro.analysis` exports.
``check(rows)`` is a pure function of those rows: it returns ``(measured,
holds)`` and never asserts, so a verdict can be taken again from stored
rows.  ``gate`` names the scales the benchmarks assert it at: ``("fast",
"full")``, ``("full",)`` for a form that needs the paper's 50 iterations,
or ``()`` for one that is reported and never asserted.  A reduced-scale
form names the strict finding it ``relaxes``.  README *Known deviations*
lists the strict forms that fail.

A check over many comparisons measures its tightest one: the pair closest
to breaking the order, or the extreme value against a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.analysis.expectations import PAPER
from repro.mlg.constants import TICK_BUDGET_MS
from repro.reporting.text import format_table

__all__ = ["FINDINGS", "Finding", "evaluate", "render"]

SCALES = ("fast", "full")
MC = ("vanilla", "forge")
DAS5, AWS, AZURE = "das5-2core", "aws-t3.large", "azure-d2v3"
UNPLAYABLE_MS = PAPER["fig7.unplayable_ms"]
NOTICEABLE_MS = PAPER["fig7.noticeable_ms"]
ENTITY = "entity_share_of_non_wait"
MSG, BYTES = "message_share_pct", "byte_share_pct"


@dataclass(frozen=True)
class Finding:
    """One paper assertion about one driver's rows."""

    id: str
    figure: str
    claim: str
    check: Callable[[list[dict]], tuple[object, bool]]
    paper: tuple[str, ...] = ()
    gate: tuple[str, ...] = SCALES
    relaxes: str | None = None


def _col(rows: list[dict], field: str, **where) -> list:
    """``field`` of each row whose columns match ``where`` (a value, or a
    tuple of allowed values), in row order."""
    return [
        row[field] for row in rows
        if all(row.get(k) in (v if isinstance(v, tuple) else (v,))
               for k, v in where.items())
    ]


def _one(rows: list[dict], field: str, **where):
    (value,) = _col(rows, field, **where)
    return value


def _above(pairs):
    """Whether ``a > b`` for every pair, measured at the tightest pair."""
    a, b = min(pairs, key=lambda pair: pair[0] - pair[1])
    return (a, b), a > b


def _at_most(pairs):
    """Whether ``a <= b`` for every pair, measured at the tightest pair."""
    a, b = max(pairs, key=lambda pair: pair[0] - pair[1])
    return (a, b), a <= b


def _at_least(pairs):
    """Whether ``a >= b`` for every pair, measured at the tightest pair."""
    a, b = min(pairs, key=lambda pair: pair[0] - pair[1])
    return (a, b), a >= b


def _over(values, bound):
    low = min(values)
    return low, low > bound


def _under(values, bound):
    high = max(values)
    return high, high < bound


def _every(values):
    values = tuple(values)
    return values, all(values)


def _chain(*levels):
    """Elementwise pairs of each level with the next."""
    return [pair for a, b in zip(levels, levels[1:]) for pair in zip(a, b)]


def _isr_s10_lam25(rows):
    isr = _one(rows, "closed_form", s=10)[24]
    return isr, abs(isr - PAPER["fig6.isr_s10_lam25"]) < 0.01


def _spot_error(rows):
    return _under([abs(measured - row["closed_form"][lam - 1])
                   for row in rows if "s" in row for measured, lam
                   in zip(row["spot_measured"], (2, 10, 25, 50, 100))], 0.02)


def _order_dependence(rows):
    (trace,) = [row for row in rows if row.get("trace") == "fig6b"]
    low, high = trace["low_isr"], trace["high_isr"]
    return (low, high), trace["identical_distribution"] and high > 4 * low


def _lag_band(rows):
    lo, hi = PAPER["fig8.lag_isr_band_das5"]
    cells = [row for row in rows if row["workload"] == "lag"
             and row["environment"] in (DAS5, "das5-16core")]
    isrs = [cell["isr"] for cell in cells]
    return (min(isrs), max(isrs)), all(
        not cell["crashed"] and lo - 0.08 <= cell["isr"] <= hi
        for cell in cells)


def _between(value, lo, hi):
    return value, lo < value < hi


def _worlds(rows):
    smallest = min(_col(rows, "size_mb"))
    names = set(_col(rows, "workload"))
    return smallest, names == set(PAPER["table2.worlds"]) and smallest > 0.0


def _std_order_blind(rows):
    a = _one(rows, "clustered", metric="std")
    b = _one(rows, "spread", metric="std")
    # pytest.approx's default tolerance: relative 1e-6, absolute 1e-12.
    return (a, b), abs(a - b) <= max(1e-6 * abs(b), 1e-12)


def _isr_normalized(rows):
    isr = _one(rows, "spread", metric="isr")
    return isr, 0.0 <= isr <= 1.0


def _common_plan(rows):
    (row,) = rows
    measured = (row["ram_gb"], row["vcpus"], row["plans"])
    return measured, measured == (
        PAPER["table7.common_ram_gb"], PAPER["table7.common_vcpus"], 23)


F1, F6, F7 = "fig1_response_time", "fig6_isr_model", "fig7_response_times"
F8, F9 = "fig8_isr_grid", "fig9_tick_timeseries"
F10, F11 = "fig10_cloud_variability", "fig11_tick_distribution"
F12 = "fig12_node_sizes"
T6, T8 = "table6_metric_comparison", "table8_network_shares"
NODES, WORKLOADS = ("L", "XL", "2XL"), ("control", "farm", "tnt")
STEADY = ("control", "farm")
SHARES = ("table8.entity_shares_pct",)

FINDINGS: tuple[Finding, ...] = (
    # -- Figure 1: response time on AWS, Control vs Farm.
    Finding("fig1.farm_slower", F1,
            "Farm's median and p95 response times are above Control's.",
            lambda rows: _above((_one(rows, k, workload="farm"),
                                 _one(rows, k, workload="control"))
                                for k in ("median_ms", "p95_ms"))),
    Finding("fig1.control_below_noticeable", F1,
            "Control's median response is below the noticeable line.",
            lambda rows: _under(_col(rows, "median_ms", workload="control"),
                                NOTICEABLE_MS),
            ("fig7.noticeable_ms",), gate=()),
    Finding("fig1.control_playable_median", F1,
            "Control's median response is below the unplayable line.",
            lambda rows: _under(_col(rows, "median_ms", workload="control"),
                                UNPLAYABLE_MS), ("fig7.unplayable_ms",),
            relaxes="fig1.control_below_noticeable"),
    Finding("fig1.farm_more_noticeable", F1,
            "Farm passes the noticeable line on more actions than Control.",
            lambda rows: _above(zip(
                _col(rows, "frac_noticeable", workload="farm"),
                _col(rows, "frac_noticeable", workload="control"))),
            ("fig7.noticeable_ms",)),
    # -- Figure 6: the ISR model.
    Finding("fig6.isr_s10_lam25", F6,
            "An outlier of s=10 every 25 ticks gives the paper's ISR, ±0.01.",
            _isr_s10_lam25, ("fig6.isr_s10_lam25",)),
    Finding("fig6.spot_matches_closed_form", F6,
            "ISR measured on periodic traces is the closed form's (±0.02).",
            _spot_error),
    Finding("fig6.order_dependence", F6,
            "Spreading a trace's clustered outliers raises its ISR over 4x.",
            _order_dependence, ("fig6.fig6b_low_isr", "fig6.fig6b_high_isr")),
    # -- Figure 7 / MF1: response time per workload on AWS.
    Finding("fig7.control_max_over_mean", F7,
            "Under Control the maximum response is over 5x the mean.",
            lambda rows: _over(
                _col(rows, "max_over_mean", workload="control"), 5.0),
            ("fig7.control_forge_max_over_mean",)),
    Finding("fig7.control_median_playable", F7,
            "Control's median response is below the unplayable line.",
            lambda rows: _under(_col(rows, "median_ms", workload="control"),
                                UNPLAYABLE_MS), ("fig7.unplayable_ms",)),
    Finding("fig7.control_max_unplayable", F7,
            "Control's maximum response is over twice the unplayable line.",
            lambda rows: _over(_col(rows, "max_ms", workload="control"),
                               2 * UNPLAYABLE_MS),
            ("fig7.unplayable_ms", "fig7.control_minecraft_max_ms",
                   "fig7.control_forge_max_ms")),
    Finding("fig7.tail_grows_with_workload", F7,
            "p95 response rises from Control to Farm to TNT.",
            lambda rows: _above(_chain(*(_col(rows, "p95_ms", workload=w)
                                         for w in WORKLOADS[::-1]))),
            ("fig7.farm_forge_p95_ms",)),
    Finding("fig7.tnt_p95_unplayable", F7,
            "TNT's p95 response is over 3x the unplayable line.",
            lambda rows: _over(_col(rows, "p95_ms", workload="tnt"),
                               3 * UNPLAYABLE_MS), ("fig7.unplayable_ms",)),
    # -- Figure 8 / MF2: ISR grid.
    Finding("fig8.lag_crashes_on_aws", F8,
            "Lag crashes all three games on AWS.",
            lambda rows: _every(
                _col(rows, "crashed", environment=AWS, workload="lag")),
            ("fig8.lag_crashes_all_on_aws",)),
    Finding("fig8.lag_isr_band_das5", F8,
            "Lag runs on DAS-5 in the paper's ISR band (floor less 0.08).",
            _lag_band, ("fig8.lag_isr_band_das5",)),
    Finding("fig8.env_workloads_above_control", F8,
            "Farm and TNT raise Minecraft's and Forge's ISR over Control's.",
            lambda rows: _above(
                pair for env in (DAS5, AWS) for w in ("farm", "tnt")
                for pair in zip(
                    _col(rows, "isr", environment=env, workload=w, server=MC),
                    _col(rows, "isr", environment=env, workload="control",
                         server=MC))),
            ("fig8.env_workloads_above_control",
                   "fig8.isr_increase_range")),
    Finding("fig8.tnt_overload", F8,
            "Minecraft's TNT peak tick on AWS is over 20x the 50 ms budget.",
            lambda rows: _over(_col(rows, "tick_max_ms", environment=AWS,
                                    workload="tnt", server="vanilla"),
                               20 * TICK_BUDGET_MS),
            ("fig8.overload_factor_max",)),
    # -- Figure 9: tick time over time on AWS.
    Finding("fig9.tnt_peaks", F9,
            "TNT's tick peaks pass 1000 ms for Minecraft and Forge.",
            lambda rows: _over(
                _col(rows, "peak_ms", workload="tnt", server=MC), 1000.0),
            ("fig9.tnt_peak_ms_vanilla_forge",)),
    Finding("fig9.papermc_farm_under_budget", F9,
            "PaperMC overloads fewer than 35 % of its Farm ticks.",
            lambda rows: _under(_col(rows, "overloaded_fraction",
                                     workload="farm", server="papermc"), 0.35),
            ("fig9.papermc_mostly_under_budget",
             "fig9.overload_threshold_ms")),
    Finding("fig9.papermc_tnt_peak_low", F9,
            "PaperMC's TNT peak tick is under 0.4x Minecraft's.",
            lambda rows: _above([(
                0.4 * _one(rows, "peak_ms", workload="tnt", server="vanilla"),
                _one(rows, "peak_ms", workload="tnt", server="papermc"))])),
    Finding("fig9.control_least_overloaded", F9,
            "Control overloads no more ticks than Farm (plus 0.02).",
            lambda rows: _at_most(zip(
                _col(rows, "overloaded_fraction", workload="control"),
                [f + 0.02 for f in _col(rows, "overloaded_fraction",
                                        workload="farm")]))),
    Finding("fig9.control_lowest_steady_peak", F9,
            "Past the connect spike, Control's peak tick is at most TNT's.",
            lambda rows: _at_most(zip(
                _col(rows, "steady_peak_ms", workload="control"),
                _col(rows, "steady_peak_ms", workload="tnt")))),
    # -- Figure 10 / MF3: cloud vs self-hosted across iterations.
    Finding("fig10.das5_lowest_isr_median", F10,
            "Every game's median ISR is lower on DAS-5 than on either cloud.",
            lambda rows: _above(
                pair for env in (AZURE, AWS)
                for pair in zip(_col(rows, "isr_median", environment=env),
                                _col(rows, "isr_median", environment=DAS5)))),
    Finding("fig10.das5_smallest_tick_iqr", F10,
            "Every game's tick IQR is smaller on DAS-5 than on either cloud.",
            lambda rows: _above(
                pair for env in (AZURE, AWS)
                for pair in zip(_col(rows, "tick_iqr_ms", environment=env),
                                _col(rows, "tick_iqr_ms", environment=DAS5))),
            ("fig10.tick_iqr_cloud_increase",)),
    Finding("fig10.cloud_min_above_das5_max", F10,
            "The lowest cloud ISR is above the highest DAS-5 ISR.",
            lambda rows: _above([(
                min(_col(rows, "isr_min", environment=(AZURE, AWS))),
                max(_col(rows, "isr_max", environment=DAS5)))]),
            ("fig10.cloud_min_isr", "fig10.das5_max_isr"), gate=("full",)),
    Finding("fig10.cloud_medians_above_das5_medians", F10,
            "Every cloud median ISR is above every DAS-5 median ISR.",
            lambda rows: _above([(
                min(_col(rows, "isr_median", environment=(AZURE, AWS))),
                max(_col(rows, "isr_median", environment=DAS5)))]),
            relaxes="fig10.cloud_min_above_das5_max"),
    Finding("fig10.aws_best_for_vanilla_forge", F10,
            "AWS gives Minecraft and Forge a lower median ISR than Azure.",
            lambda rows: _above(zip(
                _col(rows, "isr_median", environment=AZURE, server=MC),
                _col(rows, "isr_median", environment=AWS, server=MC))),
            ("fig10.aws_best_for",)),
    Finding("fig10.azure_best_for_papermc", F10,
            "Azure gives PaperMC a lower median ISR than AWS.",
            lambda rows: _above(zip(
                _col(rows, "isr_median", environment=AWS, server="papermc"),
                _col(rows, "isr_median", environment=AZURE,
                     server="papermc"))),
            ("fig10.azure_best_for",)),
    Finding("fig10.papermc_worst_aws_isr", F10,
            "PaperMC has the highest median ISR on AWS.",
            lambda rows: _at_least([(
                _one(rows, "isr_median", environment=AWS, server="papermc"),
                max(_col(rows, "isr_median", environment=AWS)))]),
            ("fig10.papermc_aws_median_isr",), gate=("full",)),
    Finding("fig10.papermc_near_worst_aws_isr", F10,
            "PaperMC's median ISR on AWS is at least 0.8x the highest there.",
            lambda rows: _at_least([(
                _one(rows, "isr_median", environment=AWS, server="papermc"),
                0.8 * max(_col(rows, "isr_median", environment=AWS)))]),
            relaxes="fig10.papermc_worst_aws_isr"),
    Finding("fig10.papermc_highest_aws_tick", F10,
            "PaperMC has the highest median tick on AWS.",
            lambda rows: _at_least([(
                _one(rows, "tick_median_ms", environment=AWS,
                     server="papermc"),
                max(_col(rows, "tick_median_ms", environment=AWS)))]),
            ("fig10.papermc_aws_median_tick_ms",)),
    Finding("fig10.papermc_aws_tick_near_budget", F10,
            "PaperMC's median tick on AWS lies between 35 and 70 ms.",
            lambda rows: _between(_one(rows, "tick_median_ms", environment=AWS,
                                       server="papermc"), 35.0, 70.0),
            ("fig10.papermc_aws_median_tick_ms",)),
    Finding("fig10.papermc_lowest_das5_isr", F10,
            "PaperMC has the lowest median ISR on DAS-5.",
            lambda rows: _at_most([(
                _one(rows, "isr_median", environment=DAS5, server="papermc"),
                min(_col(rows, "isr_median", environment=DAS5)))]),
            ("fig10.papermc_das5_median_isr",
             "fig10.minecraft_das5_median_isr")),
    # -- Figure 11 / MF4: tick-time distribution by operation.
    Finding("fig11.entities_dominate", F11,
            "Entities take over half of Minecraft's and Forge's non-wait "
            "tick time on Farm and TNT.",
            lambda rows: _over(_col(rows, ENTITY, workload=("farm", "tnt"),
                                    server=MC), 0.5),
            ("fig11.entities_dominate_non_wait",)),
    Finding("fig11.papermc_smaller_entity_share", F11,
            "PaperMC's entity share is below Minecraft's on every workload.",
            lambda rows: _above(zip(_col(rows, ENTITY, server="vanilla"),
                                    _col(rows, ENTITY, server="papermc"))),
            ("fig11.papermc_entity_share_smaller",)),
    Finding("fig11.tnt_raises_entity_share", F11,
            "TNT's entity share is above Control's for every server.",
            lambda rows: _above(zip(_col(rows, ENTITY, workload="tnt"),
                                    _col(rows, ENTITY, workload="control")))),
    Finding("fig11.papermc_tnt_entity_reduction", F11,
            "PaperMC's TNT entity share is over 0.05 below Minecraft's.",
            lambda rows: _above([(
                _one(rows, ENTITY, workload="tnt", server="vanilla") - 0.05,
                _one(rows, ENTITY, workload="tnt", server="papermc"))]),
            ("fig11.papermc_entity_share_smaller",)),
    # -- Figure 12 / MF5: AWS node sizes under TNT.
    Finding("fig12.bigger_nodes_faster", F12,
            "Minecraft's and Forge's mean tick falls from L to XL to 2XL.",
            lambda rows: _above(_chain(
                *(_col(rows, "tick_mean_ms", node=n, server=MC)
                  for n in NODES))),
            ("fig12.xl_mean_above_budget", "fig12.xxl_mean_below_budget")),
    Finding("fig12.l_insufficient", F12,
            "On L, the most common hosting plan, Minecraft's and Forge's "
            "mean tick is over 1.6x the budget.",
            lambda rows: _over(_col(rows, "tick_mean_ms", node="L", server=MC),
                               1.6 * TICK_BUDGET_MS),
            ("fig12.l_insufficient", "table7.common_vcpus",
             "table7.common_ram_gb")),
    Finding("fig12.l_to_2xl_gap", F12,
            "Minecraft's and Forge's mean tick on L is over 1.5x that on 2XL.",
            lambda rows: _above(zip(
                _col(rows, "tick_mean_ms", node="L", server=MC),
                [1.5 * m for m in _col(rows, "tick_mean_ms", node="2XL",
                                       server=MC)]))),
    Finding("fig12.papermc_lowest_mean", F12,
            "PaperMC has the lowest mean tick on every node.",
            lambda rows: _at_most(
                (_one(rows, "tick_mean_ms", node=n, server="papermc"),
                 min(_col(rows, "tick_mean_ms", node=n))) for n in NODES)),
    Finding("fig12.papermc_isr_grows_as_node_shrinks", F12,
            "PaperMC's ISR is higher on L than on 2XL.",
            lambda rows: _above(zip(
                _col(rows, "isr", node="L", server="papermc"),
                _col(rows, "isr", node="2XL", server="papermc"))),
            ("fig12.papermc_isr_l", "fig12.papermc_isr_2xl")),
    # -- Tables 2, 6 and 7.
    Finding("table2.worlds", "table2_worlds",
            "Table 2's four worlds build, each with a non-zero size (MB).",
            _worlds, ("table2.worlds", "table2.sizes_mb")),
    Finding("table6.std_order_blind", T6,
            "Standard deviation cannot tell clustered from spread outliers.",
            _std_order_blind),
    Finding("table6.allan_order_dependent", T6,
            "The Allan variance is higher for spread than clustered outliers.",
            lambda rows: _above(zip(_col(rows, "spread", metric="allan"),
                                    _col(rows, "clustered", metric="allan")))),
    Finding("table6.isr_order_dependent", T6,
            "ISR is over 4x higher for spread than for clustered outliers.",
            lambda rows: _above(zip(
                _col(rows, "spread", metric="isr"),
                [4 * v for v in _col(rows, "clustered", metric="isr")]))),
    Finding("table6.isr_normalized", T6,
            "ISR is normalized to [0, 1] (spread outliers).", _isr_normalized),
    Finding("table7.common_recommendation", "table7_hosting",
            "The 23 surveyed plans most often recommend 4 GB and 2 vCPUs.",
            _common_plan, ("table7.common_ram_gb", "table7.common_vcpus")),
    # -- Table 8 / MF4: entity share of network traffic.
    Finding("table8.entity_messages_dominate", T8,
            "Entity updates are over 60 % of messages, PaperMC Farm aside.",
            lambda rows: _over([r[MSG] for r in rows if (r["workload"], r[
                "server"]) != ("farm", "papermc")], 60.0), SHARES),
    Finding("table8.papermc_farm_below_vanilla", T8,
            "PaperMC's Farm entity-message share is below Minecraft's.",
            lambda rows: _above(zip(
                _col(rows, MSG, workload="farm", server="vanilla"),
                _col(rows, MSG, workload="farm", server="papermc"))),
            SHARES),
    Finding("table8.papermc_smallest_message_share", T8,
            "PaperMC sends the smallest entity-message share per workload.",
            lambda rows: _at_most(
                (_one(rows, MSG, workload=w, server="papermc"),
                 min(_col(rows, MSG, workload=w))) for w in WORKLOADS),
            SHARES),
    Finding("table8.bytes_below_messages", T8,
            "Entity byte shares are under 0.55x the message shares.",
            lambda rows: _above((0.55 * r[MSG], r[BYTES]) for r in rows),
            SHARES),
    Finding("table8.papermc_smaller_steady_byte_share", T8,
            "On Control and Farm, PaperMC's byte share is at most 1 point "
            "above Minecraft's.",
            lambda rows: _at_most(zip(
                _col(rows, BYTES, workload=STEADY, server="papermc"),
                [b + 1.0 for b in _col(rows, BYTES, workload=STEADY,
                                       server="vanilla")])),
            SHARES),
)


Verdict = tuple[Finding, object, bool]


def evaluate(figure: str, rows: list[dict]) -> list[Verdict]:
    """``(finding, measured, holds)`` for each finding about ``figure``."""
    return [(f, *f.check(rows)) for f in FINDINGS if f.figure == figure]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_fmt, value)) + ")"
    return str(value)


def render(verdicts: list[Verdict], scale: str) -> str:
    """The verdict section of a figure's artifact at ``scale``: each
    finding's measured value and verdict, whether this scale asserts it or
    only reports it, its claim, and the paper values it names."""
    table = format_table(
        ["finding", "measured", "holds", scale, "claim"],
        [
            [f.id, _fmt(measured), "yes" if holds else "NO",
             "asserted" if scale in f.gate else "reported",
             f.claim + (f" (relaxes {f.relaxes})" if f.relaxes else "")]
            for f, measured, holds in verdicts
        ],
    )
    keys = dict.fromkeys(k for f, _, _ in verdicts for k in f.paper)
    return table + "".join(f"\npaper {k} = {_fmt(PAPER[k])}" for k in keys)
