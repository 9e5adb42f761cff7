"""The paper's reported numbers, one flat ``"<figure>.<name>"`` key each.

Values are read from the paper's text and figures (approximate where only a
plot is given).  Each key is named by at least one finding in
:mod:`repro.analysis.findings`, whose verdict section prints it beside the
measured value; README's *Known deviations* (under *Simulation fidelity*)
lists where they part.  We reproduce *shapes* (orderings, rough factors,
crossovers), not absolute JVM-on-EC2 milliseconds.
"""

from __future__ import annotations

__all__ = ["PAPER"]

PAPER: dict[str, object] = {
    # §4.2 / Figure 6.  Fig. 6b's printed values are inconsistent with the
    # paper's own Eq. 1 model (which yields ~0.017 / ~0.087); we reproduce
    # the order-of-magnitude gap.
    "fig6.isr_s10_lam25": 0.26,
    "fig6.fig6b_low_isr": 0.009,
    "fig6.fig6b_high_isr": 0.15,
    # §5.2 / Figure 7 (response time on AWS, ms; PaperMC omitted: its async
    # chat thread decouples the echo from the tick).
    "fig7.unplayable_ms": 118.0,
    "fig7.noticeable_ms": 60.0,
    "fig7.control_forge_max_over_mean": 20.7,
    "fig7.control_minecraft_max_ms": 679.0,
    "fig7.control_forge_max_ms": 514.0,
    "fig7.farm_forge_p95_ms": 225.8,
    # §5.3 / Figure 8 (ISR per workload/environment).
    "fig8.isr_increase_range": (0.04, 0.92),
    "fig8.overload_factor_max": 58.0,
    "fig8.lag_crashes_all_on_aws": True,
    "fig8.lag_isr_band_das5": (0.80, 1.00),
    "fig8.env_workloads_above_control": True,
    # §5.3 / Figure 9 (tick time over time on AWS).
    "fig9.tnt_peak_ms_vanilla_forge": 2500.0,
    "fig9.papermc_mostly_under_budget": True,
    "fig9.overload_threshold_ms": 50.0,
    # §5.4 / Figure 10 (players workload, 50 iterations).
    "fig10.das5_max_isr": 0.021,
    "fig10.cloud_min_isr": 0.029,
    "fig10.papermc_das5_median_isr": 0.007,
    "fig10.minecraft_das5_median_isr": 0.010,
    "fig10.papermc_aws_median_isr": 0.094,
    "fig10.papermc_aws_median_tick_ms": 48.98,
    "fig10.tick_iqr_cloud_increase": (1.09, 5.61),
    "fig10.aws_best_for": ("vanilla", "forge"),
    "fig10.azure_best_for": ("papermc",),
    # §5.5 / Figure 11 (entity share of work).
    "fig11.entities_dominate_non_wait": True,
    "fig11.papermc_entity_share_smaller": True,
    # §5.6 / Figure 12 (AWS node sizes under TNT).
    "fig12.l_insufficient": True,
    "fig12.xl_mean_above_budget": True,
    "fig12.xxl_mean_below_budget": True,
    "fig12.papermc_isr_l": 0.08,
    "fig12.papermc_isr_2xl": 0.025,
    # Table 2 (workload worlds; on-disk sizes, MB).
    "table2.worlds": ("Control", "TNT", "Farm", "Lag"),
    "table2.sizes_mb": {"Control": 5.4, "TNT": 6.3, "Farm": 26.0, "Lag": 4.7},
    # Table 7 (§5.1.2).
    "table7.common_ram_gb": 4.0,
    "table7.common_vcpus": 2,
    # §5.5 / Table 8: (workload, server) -> (entity share of server-to-client
    # messages %, of bytes %).
    "table8.entity_shares_pct": {
        ("control", "vanilla"): (97.5, 3.8),
        ("farm", "vanilla"): (91.7, 17.4),
        ("tnt", "vanilla"): (97.0, 9.8),
        ("control", "forge"): (97.2, 3.2),
        ("farm", "forge"): (86.7, 9.7),
        ("tnt", "forge"): (97.1, 10.3),
        ("control", "papermc"): (89.1, 1.3),
        ("farm", "papermc"): (47.5, 1.2),
        ("tnt", "papermc"): (94.8, 3.5),
    },
}
