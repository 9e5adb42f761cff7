"""Tests for the player-emulation bots and swarm."""

import numpy as np
import pytest

from repro.cloud import get_environment
from repro.emulation import Behavior, BotSwarm, BoundedRandomWalk, Idle
from repro.emulation.bot import EmulatedPlayer
from repro.mlg.blocks import Block
from repro.mlg.server import MLGServer
from repro.mlg.world import World


class FixedMachine:
    throttled_executions = 0
    total_executions = 0
    cpu_used_us = 0.0
    wall_observed_us = 0.0
    credits_s = 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        return max(1, int(work_us))


def _server(seed=0):
    world = World()
    world.fill(-16, 0, -16, 63, 59, 63, Block.STONE)
    return MLGServer("vanilla", FixedMachine(), world=world, seed=seed)


class TestBehaviors:
    def test_idle_never_moves(self):
        rng = np.random.default_rng(0)
        assert Idle().next_move(1.0, 2.0, rng) is None

    def test_walk_stays_in_box(self):
        rng = np.random.default_rng(1)
        walk = BoundedRandomWalk(0.0, 0.0, 32.0, 32.0)
        x, z = 16.0, 16.0
        for _ in range(2000):
            target = walk.next_move(x, z, rng)
            assert target is not None
            x, z = target
            assert -0.5 <= x <= 32.5
            assert -0.5 <= z <= 32.5

    def test_walk_speed_bounded(self):
        rng = np.random.default_rng(2)
        walk = BoundedRandomWalk(0.0, 0.0, 32.0, 32.0, speed=0.22)
        x, z = 16.0, 16.0
        for _ in range(200):
            nx, nz = walk.next_move(x, z, rng)
            step = ((nx - x) ** 2 + (nz - z) ** 2) ** 0.5
            assert step <= 0.23
            x, z = nx, nz

    def test_walk_box_validation(self):
        with pytest.raises(ValueError):
            BoundedRandomWalk(10.0, 0.0, 0.0, 32.0)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Behavior().next_move(0.0, 0.0, np.random.default_rng(0))


class TestEmulatedPlayer:
    def test_bot_connects_on_creation(self):
        server = _server()
        bot = EmulatedPlayer(
            "b0", server, np.random.default_rng(0), spawn_x=8.0, spawn_z=8.0
        )
        assert bot.connected
        assert server.net.connected_count == 1

    def test_probe_roundtrip_measures_response_time(self):
        server = _server()
        bot = EmulatedPlayer(
            "b0", server, np.random.default_rng(0),
            probe_interval_s=0.2,
        )
        server.start()
        for _ in range(60):
            server.tick()
            bot.step(server.clock.now_us)
        responses = server.telemetry.response_ms.tolist()
        assert len(responses) >= 3
        # The first probe samples the connect-time chunk-loading spike.
        join_probe, *steady = responses
        assert 0.0 < join_probe < 3000.0
        for rt in steady:
            assert 0.0 < rt < 200.0

    def test_walking_bot_moves_avatar(self):
        server = _server()
        bot = EmulatedPlayer(
            "b0", server, np.random.default_rng(0),
            behavior=BoundedRandomWalk(0.0, 0.0, 32.0, 32.0),
            spawn_x=16.0, spawn_z=16.0,
        )
        server.start()
        for _ in range(40):
            server.tick()
            bot.step(server.clock.now_us)
        conn = server.players.players[bot.client_id]
        assert (conn.x, conn.z) != (16.0, 16.0)

    def test_disconnected_bot_stops_acting(self):
        server = _server()
        bot = EmulatedPlayer("b0", server, np.random.default_rng(0))
        server.net.disconnect(bot.client_id, "test")
        bot.step(server.clock.now_us)  # must not raise
        assert not bot.connected


class TestBotSwarm:
    def test_player_workload_connects_n_bots(self):
        server = _server()
        env = get_environment("das5-2core")
        swarm = BotSwarm(server, env.network, np.random.default_rng(0))
        swarm.add_player_workload(n_bots=5, stagger_s=0.1)
        server.start()
        for _ in range(30):
            server.tick()
            swarm.step()
        assert swarm.connected_count == 5
        assert server.net.connected_count == 5

    def test_staggered_connection_order(self):
        server = _server()
        env = get_environment("das5-2core")
        swarm = BotSwarm(server, env.network, np.random.default_rng(0))
        swarm.add_player_workload(n_bots=4, stagger_s=0.5)
        server.start()
        server.tick()
        swarm.step()
        assert swarm.connected_count == 1  # only the first so far
        for _ in range(40):
            server.tick()
            swarm.step()
        assert swarm.connected_count == 4

    def test_observer_is_idle(self):
        server = _server()
        env = get_environment("das5-2core")
        swarm = BotSwarm(server, env.network, np.random.default_rng(0))
        swarm.add_observer()
        server.start()
        for _ in range(20):
            server.tick()
            swarm.step()
        bot = swarm.bots[0]
        conn = server.players.players[bot.client_id]
        assert (conn.x, conn.z) == (8.0, 8.0)

    def test_response_times_reach_the_tap(self):
        server = _server()
        env = get_environment("das5-2core")
        swarm = BotSwarm(server, env.network, np.random.default_rng(0))
        swarm.add_bot("a", probe_interval_s=0.2)
        swarm.add_bot("b", probe_interval_s=0.2)
        server.start()
        for _ in range(60):
            server.tick()
            swarm.step()
        assert len(server.telemetry.response_ms) >= 6
