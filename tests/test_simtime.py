"""Tests for the simulated-time base."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simtime import (
    MS_PER_SECOND,
    US_PER_MS,
    US_PER_SECOND,
    SimClock,
    s_to_us,
    us_to_s,
)


class TestConversions:
    def test_constants(self):
        assert US_PER_MS == 1_000
        assert US_PER_SECOND == 1_000_000
        assert MS_PER_SECOND == 1_000

    def test_roundtrips(self):
        assert s_to_us(1.5) == 1_500_000
        assert us_to_s(1_500_000) == 1.5

    def test_rounding(self):
        assert s_to_us(0.0000004) == 0
        assert s_to_us(0.0000006) == 1

    @given(st.floats(min_value=0.0, max_value=1e3))
    def test_s_us_roundtrip_error_below_1us(self, seconds):
        assert abs(us_to_s(s_to_us(seconds)) - seconds) <= 1e-6


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.now_us == 0
        assert us_to_s(clock.now_us) == 0.0

    def test_custom_start(self):
        assert SimClock(start_us=5_000).now_us == 5_000

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start_us=-1)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(50_000)
        clock.advance(25_000)
        assert clock.now_us == 75_000
        assert us_to_s(clock.now_us) == 0.075

    def test_advance_backwards_rejected(self):
        clock = SimClock()
        clock.advance(100)
        with pytest.raises(ValueError):
            clock.advance(-50)
        assert clock.now_us == 100  # never backwards

    def test_repr(self):
        assert "42" in repr(SimClock(42))

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=50))
    def test_monotonicity_property(self, deltas):
        clock = SimClock()
        last = 0
        for delta in deltas:
            clock.advance(delta)
            assert clock.now_us >= last
            last = clock.now_us
        assert clock.now_us == sum(deltas)
