"""Metric collection (Fig. 5 components 7 and 8, Table 5).

The **Metric Externalizer** (component 7) is the server's telemetry tap
(:mod:`repro.telemetry.tap`): it keeps the raw tick-duration and
response-time series and the running Fig. 11 bucket, wait and wall
totals, and :func:`tick_distribution` turns those totals into the
run's tick-time shares.  The **System Metrics Collector** samples
OS-level metrics twice per second of simulated time: CPU, memory (with
a JVM-ish GC sawtooth), threads, disk I/O, and network I/O.  It keeps
every sample; its summary and record snapshot are computed from them
when read (:mod:`repro.telemetry.summary`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mlg.server import MLGServer
from repro.telemetry.summary import summarize

__all__ = [
    "SystemMetricsCollector",
    "SystemSample",
    "non_wait_shares",
    "tick_distribution",
]

#: System sampling interval: "queries the operating system twice per
#: second" (§3.5.2).
SAMPLE_INTERVAL_US = 500_000


def tick_distribution(telemetry) -> dict[str, float]:
    """Share of total tick time per Figure 11 bucket, including waits.

    Work buckets come from priced operation counts; ``Wait After`` is
    measured idle time after fast ticks, and ``Wait Before`` is the
    input-poll segment at the head of the tick (a fixed slice of the
    tick overhead, as in the paper's instrumentation).  ``telemetry`` is
    the server's tap, which folds the totals once per tick, so this is
    O(buckets) however long the run is.
    """
    totals = dict(telemetry.bucket_totals_us)
    wait_after = telemetry.wait_after_us
    wall = telemetry.wall_us
    if wall <= 0:
        return {}
    # The work breakdown is in simulated CPU µs; rescale it onto the
    # measured (noisy) durations so shares sum to 1 with the waits.
    work_total = sum(totals.values())
    duration_total = wall - wait_after
    scale = duration_total / work_total if work_total > 0 else 0.0
    shares = {bucket: us * scale / wall for bucket, us in totals.items()}
    # Carve the input-poll slice out of "Other".
    wait_before = min(shares.get("Other", 0.0), 0.1 * duration_total / wall)
    shares["Other"] = shares.get("Other", 0.0) - wait_before
    shares["Wait Before"] = wait_before
    shares["Wait After"] = wait_after / wall
    return shares


def non_wait_shares(shares: dict[str, float]) -> dict[str, float]:
    """``shares`` re-normalized with the wait buckets removed."""
    active = {
        bucket: share
        for bucket, share in shares.items()
        if not bucket.startswith("Wait")
    }
    total = sum(active.values())
    if total <= 0:
        return {bucket: 0.0 for bucket in active}
    return {bucket: share / total for bucket, share in active.items()}


@dataclass(frozen=True)
class SystemSample:
    """One 2 Hz sample of system-level metrics (Table 5)."""

    t_us: int
    cpu_utilization: float
    memory_bytes: int
    threads: int
    disk_read_bytes: int
    disk_write_bytes: int
    net_sent_bytes: int
    net_recv_bytes: int


class SystemMetricsCollector:
    """Samples system metrics at 2 Hz of simulated time.

    The raw ``samples`` list keeps every sample; summaries are computed
    from it when read.
    """

    def __init__(self, server: MLGServer) -> None:
        self.server = server
        self.samples: list[SystemSample] = []
        self._next_sample_us = server.clock.now_us
        self._last_cpu_used = 0.0
        self._last_wall = 0.0
        self._gc_phase = 0.0

    def maybe_sample(self) -> int:
        """Take all due samples; returns how many were taken.

        Call after every tick; catch-up sampling during long ticks emits
        the backlog, like a real collector polling on its own thread.
        The machine's cumulative CPU/wall counters only advance at tick
        granularity, so a backlog is attributed uniformly: every catch-up
        sample gets the window-average utilization (previously the first
        sample absorbed the entire delta and the rest read 0).
        """
        now = self.server.clock.now_us
        due: list[int] = []
        while self._next_sample_us <= now:
            due.append(self._next_sample_us)
            self._next_sample_us += SAMPLE_INTERVAL_US
        if due:
            self._take_batch(due)
        return len(due)

    def _take_batch(self, due: list[int]) -> None:
        server = self.server
        machine = server.machine
        cpu_used = machine.cpu_used_us
        wall = max(1.0, machine.wall_observed_us)
        d_cpu = cpu_used - self._last_cpu_used
        d_wall = wall - self._last_wall
        utilization = 0.0
        if d_wall > 0:
            utilization = min(
                1.0, d_cpu / (d_wall * machine.spec.vcpus)
            )
        self._last_cpu_used = cpu_used
        self._last_wall = wall
        stats = server.net.stats
        # With chunk eviction enabled the heap itself saws: streaming
        # bounds ``world.nbytes``, so ``memory_bytes`` already rises with
        # loading and drops at eviction.  Layering the synthetic GC
        # sawtooth on top would drown that real signal, so it only
        # stands in when the world can just grow monotonically.
        evicting = getattr(server, "eviction_enabled", False)
        for t_us in due:
            # JVM heap sawtooth: allocation climbs, young-GC drops it back.
            self._gc_phase = (self._gc_phase + 0.13) % 1.0
            heap_jitter = 0 if evicting else int(120e6 * self._gc_phase)
            self.samples.append(
                SystemSample(
                    t_us=t_us,
                    cpu_utilization=utilization,
                    memory_bytes=server.memory_bytes() + heap_jitter,
                    threads=server.thread_count,
                    disk_read_bytes=server.disk_bytes_read,
                    disk_write_bytes=server.disk_bytes_written,
                    net_sent_bytes=stats.total_bytes,
                    net_recv_bytes=server.net.bytes_in_total,
                )
            )

    # -- summaries ---------------------------------------------------------------

    def _series(self, field: str) -> list[float]:
        return [float(getattr(s, field)) for s in self.samples]

    def summary(self) -> dict[str, float]:
        if not self.samples:
            return {}
        last = self.samples[-1]
        cpu = summarize(self._series("cpu_utilization"))
        memory = summarize(self._series("memory_bytes"))
        return {
            "cpu_mean": cpu["mean"],
            "cpu_max": cpu["max"],
            "memory_mean_mb": memory["mean"] / 1e6,
            "memory_max_mb": memory["max"] / 1e6,
            "threads": float(last.threads),
            "disk_write_bytes": float(last.disk_write_bytes),
            "net_sent_bytes": float(last.net_sent_bytes),
            "net_recv_bytes": float(last.net_recv_bytes),
            "samples": float(len(self.samples)),
        }

    def snapshot(self) -> dict:
        """Per-metric summaries of every sample (for the job records)."""
        return {
            "samples": len(self.samples),
            "cpu_utilization": summarize(self._series("cpu_utilization")),
            "memory_bytes": summarize(self._series("memory_bytes")),
        }
