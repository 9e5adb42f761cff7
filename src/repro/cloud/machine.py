"""Machine model: converts tick work into simulated wall time.

``duration = work / (per_core_speed × amdahl(vcpus, pf)) × noise`` plus —
on burstable instances — CPU-credit accounting: credits accrue at the
baseline rate and are spent by actual CPU use (main thread plus the
variant's background threads).  An exhausted balance throttles execution to
the baseline share, the t3 behaviour behind MF5 (recommended 2-vCPU nodes
melt under environment workloads) and behind PaperMC's poor showing on AWS
(its extra threads drain credits that vanilla never touches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.variability import NoiseModel, NoiseParams

__all__ = ["BurstSpec", "MachineSpec", "Machine", "amdahl_speedup"]


def amdahl_speedup(vcpus: int, parallel_fraction: float) -> float:
    """Amdahl's-law speedup of a task with the given parallel fraction."""
    if vcpus < 1:
        raise ValueError(f"vcpus must be >= 1, got {vcpus!r}")
    if not 0.0 <= parallel_fraction < 1.0:
        raise ValueError(
            f"parallel fraction must be in [0, 1), got {parallel_fraction!r}"
        )
    return 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / vcpus)


@dataclass(frozen=True)
class BurstSpec:
    """CPU-credit model of a burstable (AWS t3) instance."""

    #: Baseline CPU fraction per vCPU (t3: 0.3 for large, 0.4 for xlarge+).
    baseline_per_vcpu: float
    #: Credit balance at experiment start, in cpu-seconds *per vCPU*
    #: (larger instances launch with proportionally more credits).
    initial_credits_s_per_vcpu: float
    #: Maximum accruable balance, in cpu-seconds per vCPU.
    max_credits_s_per_vcpu: float
    #: Extra slowdown while throttled (scheduling overhead on a starved VM).
    throttle_penalty: float = 1.25


@dataclass(frozen=True)
class MachineSpec:
    """Static description of one node type."""

    name: str
    vcpus: int
    memory_gb: float
    #: Single-core speed relative to the DAS-5 reference core (2.4 GHz).
    per_core_speed: float
    noise: NoiseParams
    burst: BurstSpec | None = None


class Machine:
    """Stateful executor owned by one simulated node."""

    def __init__(
        self, spec: MachineSpec, rng: np.random.Generator | None = None,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.noise = NoiseModel(spec.noise, self.rng)
        self._credits_us = (
            spec.burst.initial_credits_s_per_vcpu * spec.vcpus * 1e6
            if spec.burst
            else 0.0
        )
        self._last_seen_us: int | None = None
        #: Cumulative CPU microseconds consumed (all threads).
        self.cpu_used_us = 0.0
        #: Cumulative wall microseconds this machine has observed.
        self.wall_observed_us = 0.0
        #: Count of executions that ran throttled.
        self.throttled_executions = 0
        self.total_executions = 0

    # -- introspection -------------------------------------------------------------

    @property
    def credits_s(self) -> float:
        """Current burst-credit balance in cpu-seconds (0 if not burstable)."""
        return self._credits_us / 1e6

    def utilization(self) -> float:
        """Lifetime CPU utilization across all vCPUs."""
        if self.wall_observed_us <= 0:
            return 0.0
        return min(
            1.0,
            self.cpu_used_us / (self.wall_observed_us * self.spec.vcpus),
        )

    # -- redeploy -------------------------------------------------------------------

    def drain_credits(self) -> None:
        """Model a warm VM whose burst credits are already spent.

        The paper's deployments run whole experiment suites back-to-back on
        the same nodes, so later configurations start at the baseline rate.
        """
        self._credits_us = 0.0

    def redeploy(  # test-only: placement per iteration is ROADMAP item 4
        self,
    ) -> None:
        """Fresh VM boot: new placement lottery, refilled launch credits."""
        self.noise.new_placement()
        if self.spec.burst:
            self._credits_us = (
                self.spec.burst.initial_credits_s_per_vcpu
                * self.spec.vcpus
                * 1e6
            )

    # -- execution --------------------------------------------------------------------

    def execute(
        self,
        work_us: float,
        parallel_fraction: float,
        now_us: int,
        background_cpu_fraction: float = 0.0,
        alloc_pressure: float = 0.0,
        extra_thread_cores: float = 0.0,
    ) -> int:
        """Run ``work_us`` of tick work starting at ``now_us``.

        Returns the wall duration in microseconds.  ``work_us`` is CPU time
        on the reference core.  ``background_cpu_fraction`` is the variant's
        off-thread CPU appetite per vCPU (netty, async workers); it burns
        continuously — including between ticks — and spends burst credits.
        ``alloc_pressure`` models allocation-rate-driven GC demand (roughly
        "live entities plus heavy rule updates", pre-scaled by the variant's
        GC factor): GC threads occupy ``alloc_pressure / 1000`` cores, up to
        half the machine.  ``extra_thread_cores`` is scheduling overhead
        from a large thread count — cheap on dedicated hosts, but it spends
        burst credits continuously on t3-style instances.
        """
        if work_us < 0:
            raise ValueError(f"work_us must be >= 0, got {work_us!r}")
        spec = self.spec
        self.total_executions += 1

        bg_cores = background_cpu_fraction * spec.vcpus + extra_thread_cores
        # GC concurrency self-limits around four cores for a 4 GB heap.
        gc_cores = min(4.0, max(0.0, alloc_pressure) / 1000.0)
        demand_vcpus = 1.0 + bg_cores + gc_cores

        # Wall-time bookkeeping, continuous background burn, and credit
        # accrual for the time elapsed since the last call (idle waits
        # between ticks earn credits; background threads spend them).
        if self._last_seen_us is not None:
            elapsed = max(0, now_us - self._last_seen_us)
            self.wall_observed_us += elapsed
            self.cpu_used_us += bg_cores * elapsed
            if spec.burst is not None:
                net_rate = (
                    spec.burst.baseline_per_vcpu * spec.vcpus - bg_cores
                )
                self._credits_us = min(
                    spec.burst.max_credits_s_per_vcpu * spec.vcpus * 1e6,
                    max(0.0, self._credits_us + net_rate * elapsed),
                )
        self._last_seen_us = now_us

        speedup = amdahl_speedup(spec.vcpus, parallel_fraction)
        base_us = work_us / (spec.per_core_speed * speedup)
        slowdown = self.noise.sample(now_us)
        # Oversubscription: when total demand exceeds the cores, everyone
        # waits in the run queue (dedicated hosts included).
        contention = max(1.0, demand_vcpus / spec.vcpus) ** 0.8
        duration = base_us * slowdown * contention
        # Additive hypervisor stalls (sampled per execution window).
        pause_us = self.noise.sample_pause_us(
            max(0.05, base_us / 1e6)
        )

        if spec.burst is not None:
            baseline_total = spec.burst.baseline_per_vcpu * spec.vcpus
            # The tick spends credits for the main thread plus GC; the
            # baseline accrual was already added in the elapsed step above.
            usage = duration * min(1.0 + gc_cores, spec.vcpus)
            if usage <= self._credits_us:
                self._credits_us -= usage
            else:
                # Exhausted: the whole VM is capped at the baseline rate,
                # shared fairly between the tick thread, GC, and workers.
                # The cap dominates run-queue contention (they are the same
                # cores being fought over), so take the worse of the two
                # rather than stacking them.
                effective = min(1.0, baseline_total / demand_vcpus)
                effective = max(0.08, effective)
                throttle_slowdown = (
                    spec.burst.throttle_penalty / effective
                )
                duration = base_us * slowdown * max(
                    contention, throttle_slowdown
                )
                # The unaffordable surplus simply does not execute; the
                # balance keeps accruing at baseline, so near the boundary
                # the instance saw-tooths between full-speed and throttled
                # ticks — the visible signature of a depleted t3.
                self.throttled_executions += 1
            self.cpu_used_us += duration * min(1.0 + gc_cores, spec.vcpus)
        else:
            self.cpu_used_us += duration * min(1.0 + gc_cores, spec.vcpus)

        return max(1, int(duration) + pause_us)
