"""Outside-in layer attribution: host time per call into each layer.

A traced rep wraps each layer's public functions *from here* — class
attributes patched while ``LayerTrace.installed()`` is open, restored when
it closes — so no file under ``src/`` changes and an end-to-end run pays
nothing.  Tick phases are spans on a per-thread stack: a phase's time is
its **self** time (its duration minus the wrapped phases it called), so
the phases and ``mlg.gameloop.self`` add up to ``mlg.server.tick``
exactly.  Calls outside the tick (set-up, campaign plumbing, region IO)
are timed inclusively and stay off the stack.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from collections import Counter
from time import perf_counter_ns

from repro.campaign import executor as campaign_executor
from repro.campaign.planner import JobPlanner
from repro.campaign.store import JobStore
from repro.cloud.machine import Machine
from repro.core.collectors import SystemMetricsCollector
from repro.core.results import IterationResult
from repro.emulation.swarm import BotSwarm
from repro.mlg.chat import ChatSystem
from repro.mlg.constants import TICK_BUDGET_US
from repro.mlg.entity_manager import EntityManager
from repro.mlg.fluids import FluidEngine
from repro.mlg.growth import GrowthEngine
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.player import PlayerHandler
from repro.mlg.redstone import RedstoneEngine
from repro.mlg.server import MLGServer
from repro.mlg.spawning import SpawnEngine
from repro.mlg.tnt import TNTSystem
from repro.mlg.world import World
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.store import RegionStore
from repro.telemetry.tap import ServerTelemetry
from repro.workloads import WORKLOADS as REPRO_WORKLOADS

__all__ = [
    "LayerTrace",
    "TICK",
    "TICK_BUDGET_US",
    "TICK_PHASES",
    "measured",
    "patch_points",
]

TICK = "mlg.server.tick"

#: Spans that run inside ``MLGServer.tick`` or beside it in the loop,
#: as (layer name, owner, attribute).  ``<name>.us_per_tick`` is their
#: self time per executed tick.
TICK_PHASES = (
    (TICK, MLGServer, "tick"),
    ("mlg.growth.tick", GrowthEngine, "tick"),
    ("mlg.entities.tick", EntityManager, "tick"),
    ("mlg.spawning.tick", SpawnEngine, "tick"),
    ("mlg.tnt.tick", TNTSystem, "tick"),
    ("mlg.fluids.tick", FluidEngine, "tick"),
    ("mlg.redstone.tick", RedstoneEngine, "tick"),
    ("mlg.world.drain_changes", World, "drain_changes"),
    ("mlg.players.process_actions", PlayerHandler, "process_actions"),
    ("mlg.players.broadcast_movement", PlayerHandler, "broadcast_movement"),
    ("mlg.netqueue.drain_inbound", NetworkQueues, "drain_inbound"),
    ("mlg.netqueue.broadcast_counted", NetworkQueues, "broadcast_counted"),
    ("mlg.netqueue.flush_keepalives", NetworkQueues, "flush_keepalives"),
    ("mlg.chat.process_tick", ChatSystem, "process_tick"),
    ("persistence.lifecycle.tick", ChunkLifecycle, "tick"),
    ("cloud.machine.execute", Machine, "execute"),
    ("telemetry.observe_tick", ServerTelemetry, "observe_tick"),
    ("emulation.swarm.step", BotSwarm, "step"),
    ("core.collectors.maybe_sample", SystemMetricsCollector, "maybe_sample"),
)

#: Calls timed inclusively, as (layer name, owner, attribute, work):
#: ``work(args, result)`` counts the items one call handled.
_CALLS = (
    ("mlg.server.init", MLGServer, "__init__", None),
    ("campaign.planner.plan", JobPlanner, "plan", None),
    ("campaign.store.save_job", JobStore, "save_job_payload", None),
    ("campaign.store.merge", JobStore, "merge", None),
    ("campaign.executor.telemetry_line", campaign_executor, "telemetry_line", None),
    ("core.results.to_dict", IterationResult, "to_dict", None),
    (
        "persistence.region.save",
        RegionStore,
        "save_chunks",
        lambda args, result: len(args[1]),
    ),
    (
        "persistence.region.load",
        RegionStore,
        "load_chunk",
        lambda args, result: 0 if result is None else 1,
    ),
)

_MISSING = object()


def _workload_calls() -> tuple:
    """``create_world`` / ``install`` of every registered workload class."""
    return tuple(
        (f"workloads.{attr}", workload, attr, None)
        for workload in REPRO_WORKLOADS.values()
        for attr in ("create_world", "install")
    )


def patch_points() -> list[tuple[object, str]]:
    """Every (owner, attribute) a traced rep replaces."""
    return (
        [(owner, attr) for _, owner, attr in TICK_PHASES]
        + [(owner, attr) for _, owner, attr, _ in _CALLS + _workload_calls()]
        + [(campaign_executor, "execute_job")]
    )


class _Stack(threading.local):
    """Per-thread span stack: one child-time accumulator per open span."""

    def __init__(self) -> None:
        self.open: list[int] = []


class LayerTrace:
    """Accumulates host ns per layer while its wrappers are installed."""

    def __init__(self) -> None:
        #: Self time of tick-phase spans; inclusive time of other calls.
        self.ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: Items handled (chunks saved/loaded, block changes drained).
        self.work: Counter[str] = Counter()
        #: Inclusive host ns of every ``MLGServer.tick`` call.
        self.tick_ns: list[int] = []
        #: Most chunks any ticked world had loaded.
        self.loaded_chunks = 0
        #: World of the most recent tick, for the end-of-run fingerprint.
        self.last_world: World | None = None
        self._stack = _Stack()
        self._patched: list[tuple[object, str, object]] = []

    # -- install / restore ---------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer for the body of the ``with``; always restore."""
        if self._patched:
            raise RuntimeError("LayerTrace is already installed")
        try:
            for layer, owner, attr in TICK_PHASES:
                self._patch(owner, attr, self._span(layer, getattr(owner, attr)))
            for layer, owner, attr, work in _CALLS + _workload_calls():
                self._patch(
                    owner, attr, self._call(layer, getattr(owner, attr), work)
                )
            self._patch(
                campaign_executor,
                "execute_job",
                self._worker_job(campaign_executor.execute_job),
            )
            yield self
        finally:
            self.restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)  # it was inherited, not the owner's own
            else:
                setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer: str, fn):
        stack = self._stack
        ns, calls = self.ns, self.calls
        is_tick = layer == TICK
        drains = layer == "mlg.world.drain_changes"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans = stack.open
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                ns[layer] += elapsed - children
                calls[layer] += 1
                if is_tick:
                    self.tick_ns.append(elapsed)
                    world = self.last_world = args[0].world
                    if world.loaded_chunk_count > self.loaded_chunks:
                        self.loaded_chunks = world.loaded_chunk_count
            if drains:
                self.work[layer] += len(result)
            return result

        return span

    def _call(self, layer: str, fn, work):
        ns, calls = self.ns, self.calls

        @functools.wraps(fn)
        def call(*args, **kwargs):
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ns[layer] += perf_counter_ns() - start
                calls[layer] += 1
            if work is not None:
                self.work[layer] += work(args, result)
            return result

        return call

    def _worker_job(self, execute_job):
        """Carry a pool worker's accumulators home in the job's phases.

        ``multiprocessing`` forks the workers, so they inherit these
        patches and time their own calls — into their own copy of this
        object.  The wrapped ``execute_job`` (pickled by name, which
        resolves to this wrapper on both sides) clears the inherited copy
        before each job and returns its snapshot as ``phases["hostclock"]``,
        which the executor writes to ``campaign_trace.json`` verbatim.
        Under a spawn start method the workers run unpatched and the
        key is simply absent.
        """
        parent = os.getpid()

        @functools.wraps(execute_job)
        def traced_job(payload):
            if os.getpid() == parent:
                return execute_job(payload)
            self.clear()
            job, iterations, phases = execute_job(payload)
            phases["hostclock"] = self.snapshot()
            return job, iterations, phases

        return traced_job

    # -- moving accumulators between processes -------------------------------

    def clear(self) -> None:
        self.ns.clear()
        self.calls.clear()
        self.work.clear()
        self.tick_ns.clear()
        self.loaded_chunks = 0
        self.last_world = None

    def snapshot(self) -> dict:
        return {
            "ns": dict(self.ns),
            "calls": dict(self.calls),
            "work": dict(self.work),
            "tick_ns": list(self.tick_ns),
            "loaded_chunks": self.loaded_chunks,
        }

    def absorb(self, snapshot: dict | None) -> None:
        if not snapshot:
            return
        self.ns.update(snapshot["ns"])
        self.calls.update(snapshot["calls"])
        self.work.update(snapshot["work"])
        self.tick_ns.extend(snapshot["tick_ns"])
        self.loaded_chunks = max(self.loaded_chunks, snapshot["loaded_chunks"])


def measured(trace: LayerTrace | None):
    """The context a rep's measured calls run in: wrappers installed for a
    traced rep, nothing at all for an end-to-end one."""
    return contextlib.nullcontext() if trace is None else trace.installed()
