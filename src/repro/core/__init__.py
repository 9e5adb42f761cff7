"""Meterstick core: configuration, runner, collectors, retrieval.

Public API::

    from repro.core import MeterstickConfig, ExperimentRunner, run_iteration
"""

from repro.core.collectors import (
    SystemMetricsCollector,
    SystemSample,
    non_wait_shares,
    tick_distribution,
)
from repro.core.config import MeterstickConfig, stable_crc
from repro.core.experiment import (
    ExperimentRunner,
    run_iteration,
    run_server_chain,
)
from repro.core.results import ExperimentResult, IterationResult
from repro.core.retrieval import retrieve, summary_rows

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "IterationResult",
    "MeterstickConfig",
    "SystemMetricsCollector",
    "SystemSample",
    "non_wait_shares",
    "retrieve",
    "run_iteration",
    "run_server_chain",
    "stable_crc",
    "summary_rows",
    "tick_distribution",
]
