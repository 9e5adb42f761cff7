"""A clock that discounts the host's speed wander.

The box this benchmark was built on (a 2-vCPU guest) changes speed under
the program: its cores flip between a quiet state and a contended one,
second by second, and the share of contended seconds drifts over minutes —
longer than a run, so no statistic over a run's repetitions removes it.
``HostSpeed`` is a thread that, every ``PERIOD_S``, times a fixed
pure-Python loop: a sample of how fast the core is *now*.  The process is
pinned to one CPU (``pin_to_one_cpu``), so the sample is of the core the
workload runs on.  ``seconds(start, end)`` integrates the core's relative
speed over a wall interval: the **compensated seconds** the interval would
have taken had the core stayed quiet throughout.

The simulator is hit harder by contention than the tight probe loop is
(the loop lives in registers and L1; the simulator in dicts and arrays), so
the speed is ``(NOMINAL_PROBE_S / probe) ** SENSITIVITY``.  The exponent
was fitted, not derived: on ten same-seed runs of each workload it is the
value at which ticks per compensated second stop depending on the run's
median probe (README, "The compensated clock").  It is 1 for a program
exactly as sensitive as the probe; a wrong value costs spread, not bias,
because in a quiet second the speed is 1 whatever the exponent.

The thread costs the workload about 2 % of its CPU, on every run alike.
"""

from __future__ import annotations

import os
import threading
from time import perf_counter

import numpy as np

#: Seconds between two samples, and the length of the sampled loop.
PERIOD_S = 0.02
PROBE_LOOPS = 8_000
#: Wall seconds of the sampled loop on the quiet reference box (CPython
#: 3.11, Xeon 2.1 GHz guest).  It only fixes the unit: a compensated second
#: is a wall second of a host that runs the loop in exactly this time.
NOMINAL_PROBE_S = 0.00041
#: How much harder contention hits the simulator than the probe loop.
SENSITIVITY = 1.75


def pin_to_one_cpu() -> int:
    """Confine this process (and what it forks) to one CPU; returns it.

    The sampled loop must share a core with the workload to say anything
    about it, and Python threads take turns on the interpreter lock
    anyway.  The highest-numbered CPU is the one least used for interrupts.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed(threading.Thread):
    """Samples the core's speed until ``stop()``; see the module docstring."""

    def __init__(self) -> None:
        super().__init__(name="hostclock-speed", daemon=True)
        #: ``perf_counter()`` at the start of each sample, and its length.
        self.at: list[float] = []
        self.probe_s: list[float] = []
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(PERIOD_S):
            start = perf_counter()
            total = 0
            for i in range(PROBE_LOOPS):
                total += i * i
            self.probe_s.append(perf_counter() - start)
            self.at.append(start)

    def stop(self) -> None:
        self._stopped.set()
        self.join()

    def seconds(self, start: float, end: float) -> float:
        """Compensated seconds of the wall interval ``[start, end]``
        (``perf_counter`` readings); call after ``stop()``.

        Each stretch between two samples counts at the speed of the sample
        that closed it; the stretch after the last sample at that sample's.
        """
        if not self.at:
            return end - start
        at = np.asarray(self.at)
        speed = (NOMINAL_PROBE_S / np.asarray(self.probe_s)) ** SENSITIVITY
        first, last = np.searchsorted(at, (start, end))
        edges = np.concatenate(([start], at[first:last], [end]))
        closing = np.minimum(np.arange(first, last + 1), len(at) - 1)
        return float(np.sum(np.diff(edges) * speed[closing]))
