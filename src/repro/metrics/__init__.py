"""Variability metrics: ISR (Equation 1) and the metrics it is compared to.

Public API::

    from repro.metrics import instability_ratio, isr_closed_form
"""

from repro.metrics.allan import (
    allan_deviation,
    allan_variance,
    allan_variance_profile,
)
from repro.metrics.isr import (
    expected_ticks,
    instability_ratio,
    isr_components,
    tick_periods,
)
from repro.metrics.jitter import (
    cycle_to_cycle_jitter,
    max_cycle_jitter,
    mean_cycle_jitter,
    moving_average_jitter,
    rfc3550_jitter,
)
from repro.metrics.model import (
    clustered_outlier_trace,
    isr_closed_form,
    periodic_outlier_trace,
    spread_outlier_trace,
)
from repro.mlg.constants import NOTICEABLE_MS, UNPLAYABLE_MS

__all__ = [
    "NOTICEABLE_MS",
    "UNPLAYABLE_MS",
    "allan_deviation",
    "allan_variance",
    "allan_variance_profile",
    "clustered_outlier_trace",
    "cycle_to_cycle_jitter",
    "expected_ticks",
    "instability_ratio",
    "isr_closed_form",
    "isr_components",
    "max_cycle_jitter",
    "mean_cycle_jitter",
    "moving_average_jitter",
    "periodic_outlier_trace",
    "rfc3550_jitter",
    "spread_outlier_trace",
    "tick_periods",
]
