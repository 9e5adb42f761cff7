"""The MLG server facade — the system under test (Fig. 5, component 6).

Wires together the world, terrain-simulation engines, entity system,
networking queues, chat, player handler, and game loop for one variant
running on one machine model.  The benchmark harness talks to this class;
bots connect through :meth:`connect_client` and :meth:`submit_action`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.lifetimes import weak_method
from repro.mlg.chat import ChatSystem
from repro.mlg.constants import (
    DEFAULT_VIEW_DISTANCE,
    TICK_BUDGET_US,
    TICK_RATE_HZ,
)
from repro.mlg.entity_manager import EntityManager
from repro.mlg.fluids import FluidEngine
from repro.mlg.gameloop import GameLoop, TickRecord
from repro.mlg.growth import GrowthEngine
from repro.mlg.lighting import LightEngine
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.player import PlayerConnection, PlayerHandler
from repro.mlg.protocol import PlayerAction
from repro.mlg.redstone import RedstoneEngine
from repro.mlg.spawning import SpawnEngine
from repro.mlg.tnt import TNTSystem
from repro.mlg.variants import VariantProfile, get_variant
from repro.mlg.workreport import WorkReport
from repro.mlg.world import World
from repro.persistence.lifecycle import ChunkLifecycle
from repro.persistence.store import RegionStore
from repro.simtime import SimClock, s_to_us
from repro.telemetry.tap import ServerTelemetry
from repro.tracing.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["MLGServer"]

#: Default autosave interval (simulated seconds) — feeds the disk-I/O metric.
AUTOSAVE_INTERVAL_S = 45.0

#: Every Nth autosave is a full flush (the save-all tick spike) when
#: region-file persistence is enabled.
DEFAULT_FLUSH_EVERY = 6

#: Hook signature: (server, tick_index, report) -> None.
TickHook = Callable[["MLGServer", int, WorkReport], None]


class MLGServer:
    """One Minecraft-like game server instance under simulation."""

    def __init__(
        self,
        variant: VariantProfile | str,
        machine,
        world: World | None = None,
        clock: SimClock | None = None,
        seed: int = 0,
        world_dir: str | None = None,
        world_cache_dir: str | None = None,
        autosave_interval_s: float = AUTOSAVE_INTERVAL_S,
        autosave_flush_every: int = DEFAULT_FLUSH_EVERY,
        max_loaded_chunks: int | None = None,
        trace: bool = False,
        slow_tick_factor: float = 3.0,
    ) -> None:
        self.variant = (
            get_variant(variant) if isinstance(variant, str) else variant
        )
        self.machine = machine
        self.clock = clock if clock is not None else SimClock()
        self.rng = np.random.default_rng(seed)
        self.world = world if world is not None else World()
        #: Streaming per-tick telemetry; the game loop is its producer.
        self.telemetry = ServerTelemetry(TICK_BUDGET_US)
        #: Tick-phase span tracing + slow-tick flight recorder.  Off by
        #: default: the null tracer does no bookkeeping at all, keeping
        #: untraced runs bit-identical with the pre-tracing simulation.
        self.tracer: Tracer | NullTracer = NULL_TRACER
        if trace:
            self.tracer = Tracer(
                self.variant.cost_table,
                budget_us=TICK_BUDGET_US,
                slow_tick_factor=slow_tick_factor,
            )

        self.lights = LightEngine(self.world)
        self.fluids = FluidEngine(self.world)
        self.growth = GrowthEngine(self.world, self.rng)
        self.redstone = RedstoneEngine(self.world)
        self.entities = EntityManager(
            self.world,
            self.rng,
            merge_items=self.variant.merge_items,
            fluid_flow=self.fluids.flow_vector,
        )
        self.tnt = TNTSystem(self.world, self.entities, self.rng)
        self.spawning = SpawnEngine(
            self.world, self.lights, self.entities, self.rng
        )
        self.net = NetworkQueues()
        self.chat = ChatSystem(self.net, async_mode=self.variant.async_chat)
        self.players = PlayerHandler(
            self.world, self.lights, self.fluids, self.net, self.chat
        )
        self.loop = GameLoop(self)

        #: Chunk persistence/streaming — ``None`` (the default) keeps the
        #: purely in-memory world of the seed simulation, bit-identically.
        self.lifecycle: ChunkLifecycle | None = None
        if (
            world_dir is not None
            or world_cache_dir is not None
            or max_loaded_chunks is not None
        ):
            self.lifecycle = ChunkLifecycle(
                self.world,
                store=RegionStore(world_dir) if world_dir is not None else None,
                cache=(
                    RegionStore(world_cache_dir)
                    if world_cache_dir is not None
                    else None
                ),
                autosave_interval_ticks=max(
                    1, round(autosave_interval_s * TICK_RATE_HZ)
                ),
                full_flush_every=autosave_flush_every,
                max_loaded_chunks=max_loaded_chunks,
                relight=self.lights.light_chunks,
                # Weak: the server owns the lifecycle, not the reverse.
                pinned=weak_method(self.simulation_anchor_chunks),
                tracer=self.tracer,
            )

        self.tick_hooks: list[TickHook] = []
        self.running = False
        self.crashed = False
        self.crash_reason: str | None = None
        self._next_client_id = 1
        self._had_clients = False
        self._pending_join_work: WorkReport | None = None
        self._autosave_interval_us = s_to_us(autosave_interval_s)
        self._last_autosave_us = 0
        #: Cumulative bytes "written to disk" by the legacy (no-store)
        #: autosave model; real region IO is accounted by the lifecycle.
        self._disk_bytes_written = 0
        self._disk_bytes_read = 0
        #: Chunks already counted by the storeless-lifecycle variant of
        #: the legacy model (whose dirty flags never clear).
        self._legacy_counted: set[tuple[int, int]] = set()

    # -- lifecycle ---------------------------------------------------------------------

    def start(self) -> None:
        self.running = True

    def stop(self, reason: str | None = None) -> None:
        self.running = False
        if reason is not None:
            self.crashed = True
            self.crash_reason = reason

    def add_tick_hook(self, hook: TickHook) -> None:
        """Register a per-tick workload hook (ignition timers, etc.)."""
        self.tick_hooks.append(hook)

    # -- client API (used by the player-emulation bots) ----------------------------------

    def connect_client(
        self,
        name: str,
        x: float,
        z: float,
        latency_up_us: int,
        latency_down_us: int,
        view_distance: int = DEFAULT_VIEW_DISTANCE,
    ) -> PlayerConnection:
        """Connect a client; chunk loading is charged to the *next* tick.

        Returns the server-side player connection (its ``client_id`` is the
        handle bots keep).
        """
        client_id = self._next_client_id
        self._next_client_id += 1
        self.net.register_client(
            client_id, self.clock.now_us, latency_up_us, latency_down_us
        )
        self._had_clients = True
        # The join itself is processed by the player handler immediately,
        # but its work is charged to the join tick via a pending report.
        report = WorkReport()
        conn = self.players.connect(
            client_id, name, x, z, report, view_distance
        )
        if self._pending_join_work is None:
            self._pending_join_work = report
        else:
            self._pending_join_work.merge(report)
        return conn

    def submit_action(self, action: PlayerAction, sent_at_us: int) -> int:
        """Client sends an action; returns its server arrival time (µs).

        Chat takes a fast path on async-chat variants (PaperMC): the
        dedicated chat thread answers on arrival instead of waiting for the
        tick — which is why the paper excludes PaperMC from Figure 7.
        """
        from repro.mlg.protocol import ActionKind

        if action.kind == ActionKind.CHAT and self.chat.async_mode:
            endpoint = self.net.client(action.client_id)
            if endpoint is None or endpoint.disconnected:
                return -1
            arrival = sent_at_us + endpoint.latency_up_us
            probe_id, _ = action.payload
            # Off-thread work: negligible tick cost, but the packets count.
            report = WorkReport()
            self.chat.submit(action.client_id, probe_id, arrival, report)
            return arrival
        return self.net.submit_action(action, sent_at_us)

    def on_client_timeout(self, client_id: int) -> None:
        """A client timed out; a full-lobby timeout is a server crash."""
        self.players.disconnect(client_id)
        if self._had_clients and self.net.connected_count == 0:
            self.stop(reason="all clients timed out (keepalive)")

    # -- tick driving --------------------------------------------------------------------

    def tick(self) -> TickRecord:
        """Run one tick (injecting any pending join work first)."""
        pending = self._pending_join_work
        if pending is not None:

            def _inject(server, tick_index, report, _work=pending):
                report.merge(_work)

            self.tick_hooks.insert(0, _inject)
            record = self.loop.run_tick()
            self.tick_hooks.pop(0)
            self._pending_join_work = None
        else:
            record = self.loop.run_tick()
        self._maybe_autosave()
        return record

    def run_for(self, sim_seconds: float, max_ticks: int | None = None) -> list[TickRecord]:
        """Tick until ``sim_seconds`` of simulated time pass (or crash)."""
        deadline = self.clock.now_us + s_to_us(sim_seconds)
        records: list[TickRecord] = []
        self.start()
        while self.clock.now_us < deadline and self.running:
            records.append(self.tick())
            if self.crashed:
                break
            if max_ticks is not None and len(records) >= max_ticks:
                break
        self.running = False
        return records

    def _maybe_autosave(self) -> None:
        """Legacy dirty-flag autosave model, used without a *real* store.

        With a ``world_dir`` the :class:`ChunkLifecycle` performs — and
        charges — real region-file saves inside the tick instead.  A
        storeless lifecycle (warm cache or eviction only) keeps this
        synthetic disk-IO metric alive, but must not clear dirty flags:
        the eviction invariant (never drop unsaved modifications)
        depends on them.
        """
        if self.lifecycle is not None and self.lifecycle.store is not None:
            return
        now = self.clock.now_us
        if now - self._last_autosave_us >= self._autosave_interval_us:
            new = set(self.world.dirty_keys())
            if self.lifecycle is None:
                for key in new:
                    self.world.get_chunk(*key).dirty = False
            else:
                # Flags stay set (eviction safety), so charge each
                # dirtied chunk once instead of re-charging the whole
                # ever-dirty set every interval.
                new -= self._legacy_counted
                self._legacy_counted |= new
            self._disk_bytes_written += len(new) * 4096
            self._last_autosave_us = now

    # -- introspection (used by collectors) ------------------------------------------------

    @property
    def disk_bytes_written(self) -> int:
        """Cumulative bytes written to disk (region IO or legacy model)."""
        lifecycle_bytes = (
            self.lifecycle.bytes_written if self.lifecycle is not None else 0
        )
        return self._disk_bytes_written + lifecycle_bytes

    @property
    def disk_bytes_read(self) -> int:
        lifecycle_bytes = (
            self.lifecycle.bytes_read if self.lifecycle is not None else 0
        )
        return self._disk_bytes_read + lifecycle_bytes

    @property
    def eviction_enabled(self) -> bool:
        """True when chunk streaming bounds the loaded-chunk count."""
        return self.lifecycle is not None and self.lifecycle.eviction_enabled

    def simulation_anchor_chunks(self) -> set[tuple[int, int]]:
        """Chunks active simulation state references outside player views.

        Player views are not the only live references into terrain:
        scheduled fluid cells, redstone nets/events, and entity positions
        all read the world through the AIR-for-unloaded bulk queries, so
        evicting beneath them would silently diverge the simulation from
        an eviction-free run (not just change its timing).  The lifecycle
        excludes these chunks from eviction.
        """
        base = self.fluids.queued_chunks()
        base |= self.redstone.anchored_chunks()
        base |= self.entities.occupied_chunks()
        # One-chunk ring: anchored state near a border reads (and falls,
        # spreads, collides) into the neighbouring chunk.
        return {
            (cx + dx, cz + dz)
            for cx, cz in base
            for dx in (-1, 0, 1)
            for dz in (-1, 0, 1)
        }

    @property
    def tick_records(self) -> list[TickRecord]:
        """Raw per-tick records."""
        return self.loop.records

    def tick_durations_ms(self) -> list[float]:
        """Raw tick-duration series for the figure pipeline."""
        return [r.duration_ms for r in self.loop.records]

    def memory_bytes(self) -> int:
        """Approximate process memory: base JVM + world + entities."""
        base = 600 * 1024 * 1024
        per_entity = 2048
        return (
            base
            + self.world.nbytes
            + self.entities.count() * per_entity
        )

    @property
    def thread_count(self) -> int:
        return self.variant.thread_count

    @property
    def overloaded_fraction(self) -> float:
        """Fraction of >50 ms ticks, from the streaming tick counters."""
        return self.telemetry.overloaded_fraction
