"""Meterstick reproduction: benchmarking performance variability in
Minecraft-like games (ISPASS 2022).

Subpackages:

* :mod:`repro.metrics` — ISR (Equation 1) and comparison metrics;
* :mod:`repro.mlg` — the Minecraft-like game server simulator;
* :mod:`repro.cloud` — machine/variability models for AWS, Azure, DAS-5;
* :mod:`repro.emulation` — Yardstick-style player emulation;
* :mod:`repro.workloads` — Control, TNT, Farm, Lag, Players;
* :mod:`repro.core` — the Meterstick harness (config, runner, retrieval);
* :mod:`repro.campaign` — matrix campaigns: parallel, resumable, with a
  ``python -m repro`` CLI;
* :mod:`repro.analysis` — figure/table reproduction helpers.

Quickstart::

    from repro.core import run_iteration
    result = run_iteration("farm", "vanilla", "aws-t3.large", duration_s=60)
    print(result.isr, result.tick_stats()["mean"])
"""

from repro.campaign import CampaignExecutor, CampaignSpec
from repro.core.config import MeterstickConfig
from repro.core.experiment import ExperimentRunner, run_iteration
from repro.metrics import instability_ratio

__version__ = "1.1.0"

__all__ = [
    "CampaignExecutor",
    "CampaignSpec",
    "ExperimentRunner",
    "MeterstickConfig",
    "instability_ratio",
    "run_iteration",
    "__version__",
]
