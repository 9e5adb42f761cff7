"""Meterstick core: configuration, control plane, runner, collectors.

Public API::

    from repro.core import MeterstickConfig, ExperimentRunner, run_iteration
"""

from repro.core.collectors import (
    MetricExternalizer,
    SystemMetricsCollector,
    SystemSample,
    TickDistribution,
)
from repro.core.config import MeterstickConfig, stable_crc
from repro.core.controller import (
    ControlClient,
    ControlError,
    ControlServer,
    Transport,
)
from repro.core.deployment import Deployment, Node
from repro.core.experiment import (
    ExperimentRunner,
    run_iteration,
    run_server_chain,
)
from repro.core.messages import Message, MessageType
from repro.core.results import ExperimentResult, IterationResult
from repro.core.retrieval import retrieve, summary_rows
from repro.reporting.text import (
    ascii_boxplot,
    ascii_timeseries,
    format_table,
    write_csv_rows,
    write_csv_series,
)

__all__ = [
    "ControlClient",
    "ControlError",
    "ControlServer",
    "Deployment",
    "ExperimentResult",
    "ExperimentRunner",
    "IterationResult",
    "Message",
    "MessageType",
    "MeterstickConfig",
    "MetricExternalizer",
    "Node",
    "SystemMetricsCollector",
    "SystemSample",
    "TickDistribution",
    "Transport",
    "ascii_boxplot",
    "ascii_timeseries",
    "format_table",
    "retrieve",
    "run_iteration",
    "run_server_chain",
    "stable_crc",
    "summary_rows",
    "write_csv_rows",
    "write_csv_series",
]
