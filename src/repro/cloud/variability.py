"""Cloud performance-variability processes (§5.4).

The paper attributes cloud variability to "hardware manufacturing
differences, shared tenancy of hardware and networks, specific software
configurations, and resource allocation and scheduling systems" (refs
[32, 56, 71, 75]).  We model each as a separate stochastic process:

* **placement lottery** — a per-boot multiplicative speed factor (hardware
  generation / NUMA luck), constant for a VM's lifetime;
* **lognormal noise** — fast per-tick scheduling jitter;
* **AR(1) windows** — slowly varying co-tenant interference;
* **steal spikes** — Poisson-arriving bursts where a co-tenant takes a
  fixed share of the CPU for a short interval.

A :class:`NoiseModel` composes all four into one multiplicative *slowdown*
factor ≥ ~1 sampled per tick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NoiseParams", "NoiseModel"]


@dataclass(frozen=True)
class NoiseParams:
    """Parameters of one environment's variability processes."""

    #: Sigma of the per-tick lognormal jitter.
    jitter_sigma: float = 0.02
    #: Sigma of the per-boot placement lottery (lognormal).
    placement_sigma: float = 0.0
    #: AR(1) interference: correlation per second and innovation sigma.
    ar1_rho_per_s: float = 0.9
    ar1_sigma: float = 0.0
    #: Steal spikes: mean arrivals per second, duration (s), CPU share taken.
    steal_rate_per_s: float = 0.0
    steal_duration_s: float = 1.5
    steal_share: float = 0.3
    #: Hypervisor pauses: Poisson rate and additive stall range (ms).
    pause_rate_per_s: float = 0.0
    pause_ms_range: tuple[float, float] = (10.0, 40.0)


class NoiseModel:
    """Samples a multiplicative slowdown factor per tick."""

    def __init__(self, params: NoiseParams, rng: np.random.Generator) -> None:
        self.params = params
        self.rng = rng
        self._placement = float(
            np.exp(rng.normal(0.0, params.placement_sigma))
        ) if params.placement_sigma > 0 else 1.0
        self._ar1_state = 0.0
        self._last_us: int | None = None
        self._steal_until_us = -1

    def new_placement(self) -> float:
        """Redeploy: draw a fresh placement factor (new VM boot)."""
        if self.params.placement_sigma > 0:
            self._placement = float(
                np.exp(self.rng.normal(0.0, self.params.placement_sigma))
            )
        return self._placement

    def sample(self, now_us: int) -> float:
        """Slowdown factor for work executing around ``now_us``.

        Factors multiply: placement × AR(1) interference × steal × jitter.
        The result is clipped below at 0.7 — even lucky placements do not
        make the reference hardware 30 % faster.
        """
        params = self.params
        dt_s = 0.05 if self._last_us is None else max(
            1e-6, (now_us - self._last_us) / 1e6
        )
        self._last_us = now_us

        # AR(1) interference, discretized for a dt-second step.
        if params.ar1_sigma > 0:
            rho = params.ar1_rho_per_s ** dt_s
            innovation = self.rng.normal(0.0, params.ar1_sigma)
            self._ar1_state = (
                rho * self._ar1_state
                + np.sqrt(max(0.0, 1 - rho * rho)) * innovation
            )
            interference = float(np.exp(abs(self._ar1_state)))
        else:
            interference = 1.0

        # Steal spikes: Poisson arrivals; while active, the co-tenant takes
        # ``steal_share`` of the CPU, slowing us by 1/(1-share).
        steal = 1.0
        if params.steal_rate_per_s > 0:
            if now_us < self._steal_until_us:
                steal = 1.0 / (1.0 - params.steal_share)
            elif self.rng.random() < params.steal_rate_per_s * dt_s:
                self._steal_until_us = now_us + int(
                    params.steal_duration_s * 1e6
                )
                steal = 1.0 / (1.0 - params.steal_share)

        jitter = float(
            np.exp(self.rng.normal(0.0, params.jitter_sigma))
        ) if params.jitter_sigma > 0 else 1.0

        return max(0.7, self._placement * interference * steal * jitter)

    def sample_pause_us(self, dt_s: float) -> int:
        """Additive hypervisor-stall time hitting this execution window.

        VM freezes (live-migration blips, host scheduling stalls) add wall
        time directly, independent of how much work the tick does — the
        mechanism that gives clouds a nonzero ISR floor on every workload.
        """
        params = self.params
        if params.pause_rate_per_s <= 0:
            return 0
        if self.rng.random() < params.pause_rate_per_s * dt_s:
            lo, hi = params.pause_ms_range
            return int(self.rng.uniform(lo, hi) * 1000.0)
        return 0
