"""The game loop — component 2 of the operational model (Fig. 4).

Each tick: drain player input, apply player actions, run terrain simulation
(redstone, fluids, growth), entity simulation (TNT, physics, AI, spawning),
process chat, then build outbound state updates.  The accumulated
:class:`WorkReport` is priced by the variant's cost table and converted to
simulated wall time by the machine model.  A tick finishing under the 50 ms
budget waits for the next scheduled start; a tick exceeding it starts the
next one immediately — the server is then *overloaded* (§2.1).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.lifetimes import OwnerGone
from repro.mlg.chunk_arena import pack_keys
from repro.mlg.constants import TICK_BUDGET_US
from repro.mlg.protocol import PacketCategory
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import run_heads

__all__ = ["TickRecord", "GameLoop"]

#: A tick resend threshold: when one tick changes more blocks than this —
#: totalled across the whole tick, not per chunk region — servers resend
#: the touched chunks instead of per-block updates.
MULTI_BLOCK_THRESHOLD = 512


@dataclass(frozen=True)
class TickRecord:
    """Everything measured about one executed tick."""

    index: int
    start_us: int
    #: CPU work the tick performed, in simulated microseconds.
    work_us: float
    #: Wall duration after the machine model (noise, throttling, cores).
    duration_us: int
    #: Idle wait after the tick, until the next scheduled start.
    wait_us: int
    #: Simulated-µs cost per Figure 11 bucket (work only, no waits).
    breakdown_us: dict[str, float]
    #: True when duration exceeded the 50 ms budget.
    overloaded: bool
    #: Number of connected clients when the tick started.
    clients: int
    #: Entities alive at the end of the tick.
    entities: int

    @property
    def duration_ms(self) -> float:
        return self.duration_us / 1000.0

    @property
    def period_us(self) -> int:
        """The tick's period: its duration, floored by the budget."""
        return max(self.duration_us, TICK_BUDGET_US)


class GameLoop:
    """Drives one :class:`repro.mlg.server.MLGServer` tick by tick.

    The server owns its loop, so the loop holds the server weakly: a
    finished server is freed by reference counting, loop and all.
    """

    def __init__(self, server) -> None:
        self._server = weakref.ref(server)
        self.tick_index = 0
        self.records: list[TickRecord] = []
        #: Most recent tick's record (feedback-driven workloads read it).
        self.last_record: TickRecord | None = None
        self._last_time_update_us = 0

    @property
    def server(self):
        """The server this loop drives; :class:`OwnerGone` once freed."""
        server = self._server()
        if server is None:
            raise OwnerGone("the game loop's server was freed")
        return server

    # -- the tick ------------------------------------------------------------------

    def run_tick(self) -> TickRecord:
        """Execute one full tick and return its record."""
        server = self.server
        clock = server.clock
        tracer = server.tracer
        start_us = clock.now_us
        # The tracer supplies the report: a segment-stacked one when
        # tracing (spans own segments), a plain one otherwise.
        report = tracer.begin_tick(self.tick_index, start_us)
        with tracer.span("begin"):
            report.add(Op.TICK_FIXED)
            server.entities.begin_tick()

        # 0. Clients that timed out during the previous (monster) tick are
        # discovered as soon as the server looks at its sockets again.
        with tracer.span("timeouts"):
            for client_id in server.net.check_timeouts(start_us):
                server.on_client_timeout(client_id)

        # 1. Player handler: drain the input queue, apply actions.
        with tracer.span("players"):
            actions = server.net.drain_inbound(start_us)
            server.players.process_actions(actions, report)

        # 2. Terrain simulation: scheduled rules, fluids, growth.
        with tracer.span("redstone"):
            server.redstone.tick(start_us, report, tick_index=self.tick_index)
        with tracer.span("fluids"):
            server.fluids.tick(self.tick_index, report)
        with tracer.span("growth"):
            server.growth.tick(report)

        # 3. Entities: fuses/explosions, physics/AI/collisions, spawning.
        with tracer.span("tnt"):
            server.tnt.tick(report)
        with tracer.span("entities"):
            server.entities.tick(report)
        with tracer.span("spawning"):
            server.spawning.tick(server.players.positions(), report)

        # 4. Chat (sync variants process it on the tick thread).
        with tracer.span("chat"):
            server.chat.process_tick(report)

        # 5. Ambient per-chunk simulation cost: scheduling/border checks
        # (Other) plus the per-chunk mob-spawning eligibility scan, which
        # is entity work in the Fig. 11 taxonomy.
        with tracer.span("chunk_ambient"):
            report.add(Op.CHUNK_TICK, server.world.loaded_chunk_count)
            report.add(Op.SPAWN_SCAN, server.world.loaded_chunk_count)

        # 5.5. Chunk lifecycle: incremental autosave (Op.CHUNK_SAVE →
        # "Autosave"), periodic full flush (the save-all tick spike), and
        # view-driven eviction so the loaded-chunk count plateaus.
        with tracer.span("lifecycle"):
            if server.lifecycle is not None:
                server.lifecycle.tick(
                    self.tick_index, report, server.players.view_anchors()
                )

        # 6. Workload hooks (ignition timers, farm harvesters, ...).
        with tracer.span("hooks"):
            for hook in server.tick_hooks:
                hook(server, self.tick_index, report)

        # 7. Outbound state updates.
        with tracer.span("broadcast"):
            self._broadcast_state(report, start_us)

        # Price the work and let the machine turn it into wall time.
        # Allocation pressure (GC demand) scales with live entities and
        # heavy rule-update volume, damped by the variant's GC efficiency.
        with tracer.span("pricing") as pricing:
            work_us = report.total_cost_us(server.variant.cost_table)
            # Entity churn scales with the variant's allocation efficiency;
            # rule-update event objects are engine-agnostic allocations.
            alloc_pressure = (
                server.variant.gc_factor * server.entities.count()
                + (report.get(Op.REDSTONE) + report.get(Op.BLOCK_UPDATE))
                / 600.0
                + report.get(Op.BLOCK_ADD_REMOVE) / 20.0
            )
            duration_us = server.machine.execute(
                work_us,
                server.variant.parallel_fraction,
                start_us,
                background_cpu_fraction=server.variant.background_cpu_fraction,
                alloc_pressure=alloc_pressure,
                extra_thread_cores=max(0, server.variant.thread_count - 24)
                * 0.008,
            )
            if pricing is not None:
                pricing.note(work_us=work_us, duration_us=duration_us)
        clock.advance(duration_us)
        flush_us = clock.now_us

        # Flush: sync chat echoes and keepalives ride the tick boundary.
        # (Flush ops land after pricing, so they are charged to the
        # *next* tick's budget — the "flush" span marks them apart from
        # the work that produced this tick's work_us.)
        with tracer.span("flush"):
            server.chat.flush_processed(flush_us, report)
            timed_out = server.net.flush_keepalives(flush_us, report)
            for client_id in timed_out:
                server.on_client_timeout(client_id)

        # Wait for the next scheduled tick start (if we are not late).
        wait_us = max(0, TICK_BUDGET_US - duration_us)
        if wait_us:
            clock.advance(wait_us)

        record = TickRecord(
            index=self.tick_index,
            start_us=start_us,
            work_us=work_us,
            duration_us=duration_us,
            wait_us=wait_us,
            breakdown_us=report.bucketed_cost_us(server.variant.cost_table),
            overloaded=duration_us > TICK_BUDGET_US,
            clients=server.net.connected_count,
            entities=server.entities.count(),
        )
        # The tick tap folds the record into streaming telemetry; the raw
        # list feeds the figure pipeline.
        tracer.end_tick(record, report)
        server.telemetry.observe_tick(record)
        self.last_record = record
        self.records.append(record)
        self.tick_index += 1
        return record

    # -- outbound state updates --------------------------------------------------------

    def _broadcast_state(self, report: WorkReport, start_us: int) -> None:
        """Build this tick's server→client state-update packets."""
        server = self.server
        net = server.net

        # Drain the change log and notify observers BEFORE any client
        # gating: observer-triggered redstone is server-side simulation,
        # so it must advance even on headless/zero-bot runs.
        changes = server.world.drain_changes()
        server.redstone.on_block_changes(changes, start_us)
        if net.connected_count == 0:
            return

        # Block changes: per-block packets, or chunk resends past a bulk
        # threshold (explosions rewrite whole regions).  Terrain mutation
        # also drags along the real protocol's side traffic: per-section
        # light updates, sound/effect events, and chunk-section refreshes.
        if changes:
            chunks = pack_keys(changes.x >> 4, changes.z >> 4)
            chunks.sort()
            touched_chunks = int(run_heads(chunks).sum())
            if len(changes) > MULTI_BLOCK_THRESHOLD:
                net.broadcast_counted(
                    PacketCategory.CHUNK_DATA, touched_chunks, report
                )
            else:
                net.broadcast_counted(
                    PacketCategory.BLOCK_CHANGE, len(changes), report
                )
                if len(changes) > 8:
                    net.broadcast_counted(
                        PacketCategory.CHUNK_SECTION, touched_chunks, report
                    )
            net.broadcast_counted(
                PacketCategory.LIGHT_UPDATE, touched_chunks, report
            )
            net.broadcast_counted(
                PacketCategory.SOUND_EFFECT, min(24, len(changes)), report
            )

        # Hopper/container activity (farm collection) syncs block entities.
        if server.entities.collected_items:
            net.broadcast_counted(
                PacketCategory.BLOCK_ENTITY_DATA,
                server.entities.collected_items,
                report,
            )

        # Entity lifecycle packets.
        spawned = len(server.entities.spawned_this_tick)
        removed = len(server.entities.removed_this_tick)
        if spawned:
            net.broadcast_counted(PacketCategory.ENTITY_SPAWN, spawned, report)
        if removed:
            net.broadcast_counted(
                PacketCategory.ENTITY_DESTROY, removed, report
            )

        # Entity movement: every moved entity, at the variant's send rate
        # (PaperMC batches to every other tick).
        interval = server.variant.entity_broadcast_interval
        if self.tick_index % interval == 0:
            moved = server.entities.moved_count()
            if moved:
                net.broadcast_counted(PacketCategory.ENTITY_MOVE, moved, report)
                # A fraction of movers also get velocity sync.
                net.broadcast_counted(
                    PacketCategory.ENTITY_VELOCITY, moved // 4, report
                )

        # Player avatar movement.
        server.players.broadcast_movement(report)

        # World time, once per second.
        if start_us - self._last_time_update_us >= 1_000_000:
            net.broadcast_counted(PacketCategory.TIME_UPDATE, 1, report)
            self._last_time_update_us = start_us
