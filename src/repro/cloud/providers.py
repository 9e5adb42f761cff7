"""Evaluation environments (§5.1.2): AWS t3, Azure D2v3, and DAS-5.

Each :class:`Environment` bundles a node type (machine spec) with an
intra-deployment network model.  Parameters encode the qualitative traits
the paper measured:

* **DAS-5** — dedicated dual 8-core 2.4 GHz nodes: essentially noise-free;
  CPU affinity limits the game to 2 cores unless stated otherwise.
* **AWS t3** — burstable instances: low steady noise but CPU-credit
  throttling under sustained load; per-vCPU baselines of 30 % (large) and
  40 % (xlarge/2xlarge) follow the t3 documentation.
* **Azure Standard_D2_v3** — non-burstable but noisier steady state
  (higher jitter, heavier steal) in our calibration.

The registry keys match the names used in benchmark configs:
``das5-2core``, ``das5-16core``, ``aws-t3.large``, ``aws-t3.xlarge``,
``aws-t3.2xlarge``, ``azure-d2v3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.machine import BurstSpec, Machine, MachineSpec
from repro.cloud.network import NetworkModel
from repro.cloud.variability import NoiseParams

__all__ = [
    "Environment",
    "ENVIRONMENTS",
    "get_environment",
    "DAS5_2CORE",
    "DAS5_16CORE",
    "AWS_T3_LARGE",
    "AWS_T3_XLARGE",
    "AWS_T3_2XLARGE",
    "AZURE_D2V3",
]


@dataclass(frozen=True)
class Environment:
    """One deployment environment: node type plus network fabric."""

    name: str
    display_name: str
    kind: str  # "cloud" | "self-hosted"
    machine_spec: MachineSpec
    network: NetworkModel

    def create_machine(
        self, rng: np.random.Generator | None = None, seed: int = 0
    ) -> Machine:
        """Boot a node of this type."""
        return Machine(self.machine_spec, rng=rng, seed=seed)


_DAS5_NOISE = NoiseParams(
    jitter_sigma=0.006,
    placement_sigma=0.003,
    ar1_sigma=0.0,
    steal_rate_per_s=0.0,
    pause_rate_per_s=0.002,
    pause_ms_range=(5.0, 15.0),
)

_AWS_NOISE = NoiseParams(
    jitter_sigma=0.035,
    placement_sigma=0.050,
    ar1_rho_per_s=0.92,
    ar1_sigma=0.025,
    steal_rate_per_s=0.10,
    steal_duration_s=1.2,
    steal_share=0.50,
    pause_rate_per_s=0.15,
    pause_ms_range=(15.0, 110.0),
)

_AZURE_NOISE = NoiseParams(
    jitter_sigma=0.090,
    placement_sigma=0.085,
    ar1_rho_per_s=0.90,
    ar1_sigma=0.035,
    steal_rate_per_s=0.12,
    steal_duration_s=1.5,
    steal_share=0.50,
    pause_rate_per_s=0.22,
    pause_ms_range=(15.0, 160.0),
)

#: DAS-5 cluster interconnect: sub-millisecond.
_DAS5_NET = NetworkModel(median_one_way_us=250, sigma=0.15)
#: Same-region cloud fabric.
_AWS_NET = NetworkModel(median_one_way_us=900, sigma=0.30)
_AZURE_NET = NetworkModel(median_one_way_us=1_100, sigma=0.32)


def _t3_burst(baseline_per_vcpu: float) -> BurstSpec:
    return BurstSpec(
        baseline_per_vcpu=baseline_per_vcpu,
        initial_credits_s_per_vcpu=25.0,
        max_credits_s_per_vcpu=60.0,
        throttle_penalty=1.1,
    )


#: t3 per-vCPU sustained baselines.  The real t3 documentation says 30 %
#: (large) and 40 % (xlarge+); ours sit higher because the simulator's tick
#: work is the only load — there is no OS/JVM baseline eating headroom.
_T3_LARGE_BASELINE = 0.48
_T3_XLARGE_BASELINE = 0.42


DAS5_2CORE = Environment(
    name="das5-2core",
    display_name="Self-Host, DAS5 2-core",
    kind="self-hosted",
    machine_spec=MachineSpec(
        name="das5-regular (affinity 2 cores)",
        vcpus=2,
        memory_gb=64.0,
        per_core_speed=1.0,
        noise=_DAS5_NOISE,
    ),
    network=_DAS5_NET,
)

DAS5_16CORE = Environment(
    name="das5-16core",
    display_name="Self-Host, DAS5 16-core",
    kind="self-hosted",
    machine_spec=MachineSpec(
        name="das5-regular (all 16 cores)",
        vcpus=16,
        memory_gb=64.0,
        per_core_speed=1.0,
        noise=_DAS5_NOISE,
    ),
    network=_DAS5_NET,
)

AWS_T3_LARGE = Environment(
    name="aws-t3.large",
    display_name="Cloud, AWS t3.large (2 vCPU)",
    kind="cloud",
    machine_spec=MachineSpec(
        name="t3.large",
        vcpus=2,
        memory_gb=8.0,
        per_core_speed=1.02,
        noise=_AWS_NOISE,
        burst=_t3_burst(_T3_LARGE_BASELINE),
    ),
    network=_AWS_NET,
)

AWS_T3_XLARGE = Environment(
    name="aws-t3.xlarge",
    display_name="Cloud, AWS t3.xlarge (4 vCPU)",
    kind="cloud",
    machine_spec=MachineSpec(
        name="t3.xlarge",
        vcpus=4,
        memory_gb=16.0,
        per_core_speed=1.02,
        noise=_AWS_NOISE,
        burst=_t3_burst(_T3_XLARGE_BASELINE),
    ),
    network=_AWS_NET,
)

AWS_T3_2XLARGE = Environment(
    name="aws-t3.2xlarge",
    display_name="Cloud, AWS t3.2xlarge (8 vCPU)",
    kind="cloud",
    machine_spec=MachineSpec(
        name="t3.2xlarge",
        vcpus=8,
        memory_gb=32.0,
        per_core_speed=1.02,
        noise=_AWS_NOISE,
        burst=_t3_burst(_T3_XLARGE_BASELINE),
    ),
    network=_AWS_NET,
)

AZURE_D2V3 = Environment(
    name="azure-d2v3",
    display_name="Cloud, Azure Standard_D2_v3 (2 vCPU)",
    kind="cloud",
    machine_spec=MachineSpec(
        name="Standard_D2_v3",
        vcpus=2,
        memory_gb=8.0,
        per_core_speed=0.98,
        noise=_AZURE_NOISE,
    ),
    network=_AZURE_NET,
)

ENVIRONMENTS: dict[str, Environment] = {
    env.name: env
    for env in (
        DAS5_2CORE,
        DAS5_16CORE,
        AWS_T3_LARGE,
        AWS_T3_XLARGE,
        AWS_T3_2XLARGE,
        AZURE_D2V3,
    )
}
#: Aliases used in paper text/figures.
ENVIRONMENTS["aws"] = AWS_T3_LARGE
ENVIRONMENTS["azure"] = AZURE_D2V3
ENVIRONMENTS["das5"] = DAS5_2CORE


def get_environment(name: str) -> Environment:
    """Resolve an environment by name or alias."""
    try:
        return ENVIRONMENTS[name.lower()]
    except KeyError:
        known = sorted(set(ENVIRONMENTS))
        raise ValueError(
            f"unknown environment {name!r}; known: {', '.join(known)}"
        ) from None
