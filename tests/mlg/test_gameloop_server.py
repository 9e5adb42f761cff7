"""Tests for the game loop and the MLG server facade."""

import weakref

import numpy as np
import pytest

from repro.cloud import get_environment
from repro.mlg.blocks import Block
from repro.mlg.constants import CLIENT_TIMEOUT_US, TICK_BUDGET_US
from repro.mlg.protocol import ActionKind, PacketCategory, PlayerAction
from repro.mlg.server import MLGServer
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.simtime import SimClock


class FixedMachine:
    """Deterministic machine: duration equals work (no noise)."""

    def __init__(self, slowdown=1.0):
        self.slowdown = slowdown
        self.throttled_executions = 0
        self.total_executions = 0
        self.cpu_used_us = 0.0
        self.wall_observed_us = 0.0

    @property
    def credits_s(self):
        return 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        self.total_executions += 1
        self.cpu_used_us += work_us
        return max(1, int(work_us * self.slowdown))


def _server(variant="vanilla", machine=None, flat=True, seed=0, **kwargs):
    if flat:
        world = World()
        world.fill(-16, 0, -16, 47, 59, 47, Block.STONE)
        for chunk in world.loaded_chunks():  # saved: nothing to autosave
            chunk.dirty = False
    else:
        world = World(generator=TerrainGenerator(seed=1))
    return MLGServer(
        variant, machine or FixedMachine(), world=world, seed=seed, **kwargs
    )


class TestTickMechanics:
    def test_fast_tick_waits_for_budget(self):
        server = _server()
        record = server.tick()
        assert record.duration_us < TICK_BUDGET_US
        assert record.wait_us == TICK_BUDGET_US - record.duration_us
        assert server.clock.now_us == TICK_BUDGET_US

    def test_slow_tick_has_no_wait(self):
        server = _server(machine=FixedMachine(slowdown=100.0))
        server.connect_client("p", 8.0, 8.0, 1000, 1000, view_distance=4)
        record = server.tick()  # the join tick carries chunk-gen work
        assert record.duration_us > TICK_BUDGET_US
        assert record.wait_us == 0
        assert record.overloaded

    def test_tick_indexes_increment(self):
        server = _server()
        records = [server.tick() for _ in range(5)]
        assert [r.index for r in records] == [0, 1, 2, 3, 4]

    # A factor far below any real tick makes every traced tick a
    # flight-recorder dump, which must copy the record, not keep it.
    @pytest.mark.parametrize(
        "knobs", [{}, {"trace": True, "slow_tick_factor": 0.001}],
        ids=["untraced", "traced"],
    )
    def test_no_tick_record_outlives_the_next_tick(self, knobs):
        server = _server(**knobs)
        server.connect_client("p", 8.0, 8.0, 1000, 1000, view_distance=4)
        first = weakref.ref(server.tick())
        assert first() is server.loop.last_record
        for _ in range(3):
            server.tick()
        assert first() is None
        assert len(server.telemetry.tick_ms) == 4
        if knobs:
            assert server.tracer.anomalies  # the dumps were taken

    def test_breakdown_buckets_present(self):
        server = _server()
        record = server.tick()
        assert "Other" in record.breakdown_us  # tick_fixed lands in Other

    def test_run_for_stops_at_deadline(self):
        server = _server()
        records = server.run_for(1.0)
        assert len(records) == 20  # 20 Hz x 1 s
        assert server.clock.now_us >= 1_000_000


class TestJoinWork:
    def test_join_work_charged_to_next_tick(self):
        server = _server()
        baseline = server.tick()
        server.connect_client("p", 8.0, 8.0, 1000, 1000, view_distance=4)
        join_tick = server.tick()
        after = server.tick()
        assert join_tick.duration_us > 5 * baseline.duration_us
        assert after.duration_us < join_tick.duration_us

    def test_join_ships_chunk_data(self):
        server = _server()
        server.connect_client("p", 8.0, 8.0, 1000, 1000, view_distance=4)
        server.tick()
        assert server.net.stats.counts[PacketCategory.CHUNK_DATA] == 81


class TestActionRoundtrip:
    def test_move_action_applies_next_tick(self):
        server = _server()
        conn = server.connect_client("p", 8.0, 8.0, 1000, 1000, 4)
        server.tick()
        action = PlayerAction(ActionKind.MOVE, conn.client_id, (9.0, 60.0, 8.0))
        server.submit_action(action, server.clock.now_us)
        server.tick()
        server.tick()
        assert conn.x == 9.0

    def test_sync_chat_echo_latency_includes_tick(self):
        server = _server("vanilla")
        conn = server.connect_client("p", 8.0, 8.0, 1000, 2000, 4)
        server.tick()
        sent_at = server.clock.now_us
        action = PlayerAction(ActionKind.CHAT, conn.client_id, (1, 32))
        server.submit_action(action, sent_at)
        server.tick()  # in flight during this tick (arrival > tick start)
        server.tick()  # drained, processed, flushed at tick end
        endpoint = server.net.client(conn.client_id)
        chats = [
            d for d in endpoint.drain_deliveries()
            if d.category == PacketCategory.CHAT
        ]
        assert len(chats) == 1
        # Echo arrives after uplink + tick + downlink; at least RTT.
        assert chats[0].delivered_at_us - sent_at >= 3000

    def test_async_chat_skips_tick(self):
        server = _server("papermc")
        conn = server.connect_client("p", 8.0, 8.0, 1000, 2000, 4)
        sent_at = server.clock.now_us
        action = PlayerAction(ActionKind.CHAT, conn.client_id, (5, 32))
        server.submit_action(action, sent_at)
        endpoint = server.net.client(conn.client_id)
        chats = [
            d for d in endpoint.drain_deliveries()
            if d.category == PacketCategory.CHAT
        ]
        assert len(chats) == 1  # delivered without any tick running
        latency = chats[0].delivered_at_us - sent_at
        assert latency < 10_000  # well under one tick budget


class TestCrash:
    def test_monster_tick_times_out_all_clients(self):
        server = _server(machine=FixedMachine(slowdown=1.0))
        server.connect_client("p", 8.0, 8.0, 1000, 1000, 2)
        server.tick()

        def stall(server_, tick_index, report):
            if tick_index == 2:
                report.add("chat", CLIENT_TIMEOUT_US / 25.0)  # 25 µs each

        server.add_tick_hook(stall)
        server.start()
        for _ in range(5):
            server.tick()
            if server.crashed:
                break
        assert server.crashed
        assert "timed out" in server.crash_reason
        assert server.net.connected_count == 0

    def test_no_crash_without_clients(self):
        server = _server(machine=FixedMachine(slowdown=1000.0))
        server.start()
        for _ in range(3):
            server.tick()
        assert not server.crashed


class TestServerIntrospection:
    def test_memory_grows_with_world(self):
        server = _server()
        before = server.memory_bytes()
        server.world.ensure_chunk(50, 50)
        assert server.memory_bytes() > before

    def test_thread_count_from_variant(self):
        assert _server("vanilla").thread_count == 26
        assert _server("papermc").thread_count == 43

    def test_overloaded_fraction(self):
        server = _server(machine=FixedMachine(slowdown=200.0))
        server.connect_client("p", 8.0, 8.0, 1000, 1000, 4)
        server.tick()
        assert server.telemetry.snapshot()["overloaded_fraction"] > 0

    def test_autosave_writes_dirty_chunks(self):
        server = _server()
        server.world.set_block(1, 61, 1, Block.STONE)
        server.run_for(46.0)  # past the 45 s autosave interval
        assert server.disk_bytes_written > 0

    @pytest.mark.parametrize("max_loaded_chunks", [None, 500])
    def test_autosave_keeps_the_configured_interval(self, max_loaded_chunks):
        # Without a world_dir the synthetic model charges on the interval
        # the server was built with, not on the 45 s default — with no
        # lifecycle and with a storeless (eviction-only) one.
        server = _server(
            autosave_interval_s=5.0, max_loaded_chunks=max_loaded_chunks
        )
        server.world.set_block(1, 61, 1, Block.STONE)
        server.run_for(4.9)
        assert server.disk_bytes_written == 0
        server.run_for(0.2)
        assert server.disk_bytes_written == 4096

    def test_variant_resolution_by_string(self):
        server = _server("minecraft")
        assert server.variant.name == "vanilla"


class TestHeadlessRedstone:
    """Observer-triggered redstone must advance with zero clients: the
    drain+notify step is server-side simulation, not client broadcast."""

    def _observer_server(self):
        server = _server()
        # Observer watching a block we mutate from a tick hook, wired to
        # a powered line so the pulse produces visible updates.
        server.world.set_block(10, 61, 10, Block.OBSERVER, log=False)
        server.redstone.register_observer(10, 61, 10)
        server.world.set_block(11, 61, 10, Block.REDSTONE_WIRE, log=False)

        def mutate(server_, tick_index, report):
            if tick_index == 0:
                # Logged change adjacent to the observer.
                server_.world.set_block(10, 62, 10, Block.STONE)

        server.add_tick_hook(mutate)
        return server

    def test_observer_fires_with_zero_clients(self):
        server = self._observer_server()
        assert server.net.connected_count == 0
        updates = []
        for _ in range(6):
            server.tick()
            updates.append(server.redstone.last_tick_updates)
        assert sum(updates) > 0, (
            "zero-client run froze observer redstone: block changes were "
            "drained without notifying the redstone engine"
        )

    def test_observer_updates_match_connected_run(self):
        # The circuit advances identically whether or not anyone watches.
        connected = self._observer_server()
        connected.connect_client("p", 8.0, 8.0, 1000, 1000, 4)
        headless = self._observer_server()
        totals = {}
        for name, server in (("connected", connected), ("headless", headless)):
            updates = []
            for _ in range(6):
                server.tick()
                updates.append(server.redstone.last_tick_updates)
            # Tick wall-times differ (join work), so compare totals, not
            # per-tick placement.
            totals[name] = sum(updates)
        assert totals["headless"] == totals["connected"]
        assert totals["headless"] > 0


class TestEntityBroadcastInterval:
    def test_papermc_batches_entity_moves(self):
        counts = {}
        for variant in ("vanilla", "papermc"):
            server = _server(variant, seed=3)
            server.connect_client("p", 8.0, 8.0, 1000, 1000, 4)
            for _ in range(40):
                mob = server.entities.spawn("mob", 10.0, 60.0, 10.0)
                mob.goal = (30, 60, 30)
            server.run_for(3.0)
            counts[variant] = server.net.stats.counts.get(
                PacketCategory.ENTITY_MOVE, 0
            )
        assert counts["papermc"] < counts["vanilla"]
