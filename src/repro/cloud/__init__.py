"""Environment models (where a server runs): machines, variability, networks.

Public API::

    from repro.cloud import get_environment, Machine, amdahl_speedup
"""

from repro.cloud.machine import (
    BurstSpec,
    Machine,
    MachineSpec,
    amdahl_speedup,
)
from repro.cloud.network import NetworkModel
from repro.cloud.providers import (
    AWS_T3_2XLARGE,
    AWS_T3_LARGE,
    AWS_T3_XLARGE,
    AZURE_D2V3,
    DAS5_16CORE,
    DAS5_2CORE,
    ENVIRONMENTS,
    Environment,
    get_environment,
)
from repro.cloud.variability import NoiseModel, NoiseParams

__all__ = [
    "AWS_T3_2XLARGE",
    "AWS_T3_LARGE",
    "AWS_T3_XLARGE",
    "AZURE_D2V3",
    "BurstSpec",
    "DAS5_16CORE",
    "DAS5_2CORE",
    "ENVIRONMENTS",
    "Environment",
    "Machine",
    "MachineSpec",
    "NetworkModel",
    "NoiseModel",
    "NoiseParams",
    "amdahl_speedup",
    "get_environment",
]
