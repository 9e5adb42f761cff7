"""Simulated time base shared by the game loop, clouds, and bots.

All measurements in this reproduction run on *simulated* time: the game loop
performs real algorithmic work, a machine model converts work into simulated
microseconds, and a :class:`SimClock` tracks the result.  Wall-clock time
never enters any metric, so every experiment is deterministic given a seed.
"""

from __future__ import annotations

__all__ = [
    "US_PER_MS",
    "US_PER_SECOND",
    "MS_PER_SECOND",
    "SimClock",
    "s_to_us",
    "us_to_s",
]

US_PER_MS = 1_000
US_PER_SECOND = 1_000_000
MS_PER_SECOND = 1_000


def s_to_us(seconds: float) -> int:
    """Convert seconds to integer microseconds."""
    return int(round(seconds * US_PER_SECOND))


def us_to_s(us: float) -> float:
    """Convert microseconds to (float) seconds."""
    return us / US_PER_SECOND


class SimClock:
    """A monotonically advancing microsecond clock.

    The clock only moves forward via :meth:`advance`; components read it
    through :attr:`now_us`.  Keeping it integer avoids drift over long
    experiments.
    """

    def __init__(self, start_us: int = 0) -> None:
        if start_us < 0:
            raise ValueError(f"start_us must be >= 0, got {start_us!r}")
        self._now_us = int(start_us)

    @property
    def now_us(self) -> int:
        """Current simulated time in microseconds."""
        return self._now_us

    def advance(self, delta_us: int) -> int:
        """Move the clock forward by ``delta_us`` and return the new time."""
        delta = int(delta_us)
        if delta < 0:
            raise ValueError(f"cannot advance time backwards ({delta_us!r})")
        self._now_us += delta
        return self._now_us

    def __repr__(self) -> str:
        return f"SimClock(now_us={self._now_us})"
