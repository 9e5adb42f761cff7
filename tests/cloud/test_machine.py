"""Tests for the machine model: Amdahl scaling, credits, throttling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.machine import (
    BurstSpec,
    Machine,
    MachineSpec,
    amdahl_speedup,
)
from repro.cloud.variability import NoiseParams


def _quiet_noise():
    return NoiseParams(
        jitter_sigma=0.0, placement_sigma=0.0, ar1_sigma=0.0,
        steal_rate_per_s=0.0, pause_rate_per_s=0.0,
    )


def _machine(vcpus=2, speed=1.0, burst=None, seed=0):
    spec = MachineSpec(
        name="test", vcpus=vcpus, memory_gb=8.0, per_core_speed=speed,
        noise=_quiet_noise(), burst=burst,
    )
    return Machine(spec, seed=seed)


class TestAmdahl:
    def test_serial_task_gets_no_speedup(self):
        assert amdahl_speedup(8, 0.0) == 1.0

    def test_speedup_increases_with_cores(self):
        assert amdahl_speedup(4, 0.5) > amdahl_speedup(2, 0.5)

    def test_single_core_is_identity(self):
        assert amdahl_speedup(1, 0.5) == pytest.approx(1.0)

    def test_known_value(self):
        # pf=0.5 on 2 cores: 1 / (0.5 + 0.25) = 4/3.
        assert amdahl_speedup(2, 0.5) == pytest.approx(4.0 / 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.5)
        with pytest.raises(ValueError):
            amdahl_speedup(2, 1.0)

    @given(
        st.integers(min_value=1, max_value=64),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_speedup_bounded_by_cores(self, vcpus, pf):
        speedup = amdahl_speedup(vcpus, pf)
        assert 1.0 <= speedup <= vcpus + 1e-9


class TestExecute:
    def test_duration_scales_with_work(self):
        machine = _machine()
        short = machine.execute(10_000, 0.0, 0)
        long = machine.execute(40_000, 0.0, 1_000_000)
        assert long == pytest.approx(4 * short, rel=0.01)

    def test_faster_core_is_faster(self):
        slow = _machine(speed=1.0).execute(10_000, 0.0, 0)
        fast = _machine(speed=2.0).execute(10_000, 0.0, 0)
        assert fast == pytest.approx(slow / 2, rel=0.01)

    def test_parallel_fraction_uses_cores(self):
        two = _machine(vcpus=2).execute(100_000, 0.4, 0)
        sixteen = _machine(vcpus=16).execute(100_000, 0.4, 0)
        assert sixteen < two

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            _machine().execute(-1.0, 0.0, 0)

    def test_zero_work_has_minimal_duration(self):
        assert _machine().execute(0.0, 0.0, 0) == 1

    def test_gc_contention_slows_small_machines(self):
        base = _machine(vcpus=2).execute(100_000, 0.0, 0)
        loaded = _machine(vcpus=2).execute(
            100_000, 0.0, 0, alloc_pressure=3500.0
        )
        assert loaded > base * 1.3
        # A 16-core box absorbs the same GC demand.
        big = _machine(vcpus=16).execute(
            100_000, 0.0, 0, alloc_pressure=3500.0
        )
        assert big == pytest.approx(
            _machine(vcpus=16).execute(100_000, 0.0, 0), rel=0.01
        )

    def test_utilization_tracks_usage(self):
        machine = _machine()
        now = 0
        for _ in range(100):
            duration = machine.execute(25_000, 0.0, now)
            now += max(duration, 50_000)
        assert 0.1 < machine.utilization() < 0.6


class TestBurstCredits:
    def _burst_machine(self, baseline=0.45, initial=10.0, vcpus=2):
        burst = BurstSpec(
            baseline_per_vcpu=baseline,
            initial_credits_s_per_vcpu=initial,
            max_credits_s_per_vcpu=60.0,
            throttle_penalty=1.0,
        )
        return _machine(vcpus=vcpus, burst=burst)

    def test_initial_credits_scale_with_vcpus(self):
        assert self._burst_machine(vcpus=2).credits_s == 20.0
        assert self._burst_machine(vcpus=8).credits_s == 80.0

    def test_light_load_never_throttles(self):
        machine = self._burst_machine()
        now = 0
        for _ in range(1000):
            duration = machine.execute(10_000, 0.0, now)  # 20% util
            now += max(duration, 50_000)
        assert machine.throttled_executions == 0

    def test_sustained_overload_throttles(self):
        machine = self._burst_machine(initial=1.0)
        now = 0
        for _ in range(200):
            duration = machine.execute(200_000, 0.0, now)  # 4x budget
            now += duration
        assert machine.throttled_executions > 0
        assert machine.credits_s < 2.0

    def test_throttled_ticks_are_slower(self):
        machine = self._burst_machine(baseline=0.2, initial=0.0)
        machine.drain_credits()
        throttled = machine.execute(200_000, 0.0, 0)
        free = self._burst_machine(baseline=0.2, initial=50.0).execute(
            200_000, 0.0, 0
        )
        # Baseline 0.2/vCPU x 2 vCPUs = 0.4 cores for the tick thread.
        assert throttled == pytest.approx(free / 0.4, rel=0.02)

    def test_idle_time_accrues_credits(self):
        machine = self._burst_machine(initial=0.0)
        machine.drain_credits()
        machine.execute(1_000, 0.0, 0)
        machine.execute(1_000, 0.0, 10_000_000)  # 10 s later
        assert machine.credits_s > 5.0

    def test_credit_cap(self):
        machine = self._burst_machine(initial=60.0)
        machine.execute(100, 0.0, 0)
        machine.execute(100, 0.0, 1_000_000_000)  # ~17 min idle
        assert machine.credits_s <= 120.0

    def test_background_burn_drains_credits(self):
        lean = self._burst_machine(initial=10.0)
        hungry = self._burst_machine(initial=10.0)
        now = 0
        for _ in range(100):
            lean.execute(10_000, 0.0, now, background_cpu_fraction=0.0)
            hungry.execute(10_000, 0.0, now, background_cpu_fraction=0.45)
            now += 50_000
        assert hungry.credits_s < lean.credits_s

    def test_redeploy_restores_credits(self):
        machine = self._burst_machine(initial=10.0)
        machine.drain_credits()
        assert machine.credits_s == 0.0
        machine.redeploy()
        assert machine.credits_s == 20.0


class TestNoiseIntegration:
    def test_noisy_machine_varies_durations(self):
        spec = MachineSpec(
            name="noisy", vcpus=2, memory_gb=8.0, per_core_speed=1.0,
            noise=NoiseParams(jitter_sigma=0.1),
        )
        machine = Machine(spec, seed=5)
        durations = {machine.execute(50_000, 0.0, t * 50_000) for t in range(50)}
        assert len(durations) > 10

    def test_placement_factor_is_stable_within_boot(self):
        # Placement is the only noise here, so it alone sets a duration.
        spec = MachineSpec(
            name="placed", vcpus=2, memory_gb=8.0, per_core_speed=1.0,
            noise=NoiseParams(placement_sigma=0.2, jitter_sigma=0.0),
        )
        machine = Machine(spec, seed=9)
        first = machine.execute(50_000, 0.0, 0)
        assert machine.execute(50_000, 0.0, 50_000) == first
        machine.redeploy()
        assert machine.execute(50_000, 0.0, 100_000) != first

    def test_determinism_given_seed(self):
        a = _machine(seed=3).execute(50_000, 0.2, 0)
        b = _machine(seed=3).execute(50_000, 0.2, 0)
        assert a == b
