"""Transport-boundary parity: the session path is bit-identical to the
pre-refactor direct-call path.

``OldStyleBot`` below replicates the pre-boundary ``EmulatedPlayer``
verbatim — direct ``server.net`` / ``server.world`` / ``server.telemetry``
reach-ins, same RNG draw order — and races an identically-seeded
``EmulatedPlayer`` + ``InProcessTransport`` run.  Everything observable
must agree byte-for-byte: tick telemetry, response times, packet
accounting, tick durations.
"""

import numpy as np
import pytest

from repro.cloud.providers import get_environment
from repro.core.experiment import run_iteration
from repro.emulation.behavior import BoundedRandomWalk
from repro.emulation.bot import EmulatedPlayer
from repro.emulation.swarm import BotSwarm
from repro.mlg.protocol import ActionKind, PacketCategory, PlayerAction
from repro.mlg.server import MLGServer
from repro.mlg.transport import (
    InProcessTransport,
    ServerSession,
    as_transport,
)
from repro.simtime import SimClock, s_to_us
from repro.workloads import get_workload


class OldStyleBot:
    """The pre-refactor bot, reaching directly into server internals."""

    def __init__(
        self,
        name,
        server,
        rng,
        behavior,
        spawn_x=8.0,
        spawn_z=8.0,
        latency_up_us=1000,
        latency_down_us=1000,
        probe_interval_s=1.0,
    ):
        self.server = server
        self.rng = rng
        self.behavior = behavior
        self.probe_interval_us = s_to_us(probe_interval_s)
        conn = server.connect_client(
            name, spawn_x, spawn_z, latency_up_us, latency_down_us
        )
        self.client_id = conn.client_id
        self.x, self.z = conn.x, conn.z
        self._next_probe_us = server.clock.now_us
        self._next_probe_id = 1
        self._pending_probes = {}
        self.response_times_ms = []
        self._maybe_probe(server.clock.now_us)

    def step(self, now_us):
        endpoint = self.server.net.client(self.client_id)
        if endpoint is None or endpoint.disconnected:
            return
        for delivery in endpoint.drain_deliveries():
            if delivery.category != PacketCategory.CHAT:
                continue
            sender_id, probe_id = delivery.payload
            if sender_id != self.client_id:
                continue
            sent_at = self._pending_probes.pop(probe_id, None)
            if sent_at is not None:
                response_ms = (delivery.delivered_at_us - sent_at) / 1000.0
                self.server.telemetry.observe_response(response_ms)
                self.response_times_ms.append(response_ms)
        target = self.behavior.next_move(self.x, self.z, self.rng)
        if target is not None:
            tx, tz = target
            ground = self.server.world.column_height(int(tx), int(tz))
            action = PlayerAction(
                ActionKind.MOVE,
                self.client_id,
                (tx, float(max(ground, 1)), tz),
            )
            self.x, self.z = tx, tz
            self.server.submit_action(action, now_us)
        self._maybe_probe(now_us)

    def _maybe_probe(self, now_us):
        if now_us < self._next_probe_us:
            return
        probe_id = self._next_probe_id
        self._next_probe_id += 1
        sent_at = now_us + int(self.rng.uniform(0, 45_000))
        action = PlayerAction(
            ActionKind.CHAT, self.client_id, (probe_id, 32)
        )
        self.server.submit_action(action, sent_at)
        self._pending_probes[probe_id] = sent_at
        self._next_probe_us = now_us + self.probe_interval_us + int(
            self.rng.uniform(-0.1, 0.1) * self.probe_interval_us
        )


def build_server(seed=5):
    env = get_environment("das5")
    machine = env.create_machine(seed=seed)
    clock = SimClock()
    workload = get_workload("players", n_bots=2)
    world = workload.create_world(seed)
    server = MLGServer(
        "vanilla", machine, world=world, clock=clock, seed=seed
    )
    return server, clock


def drive(server, clock, bots, duration_s=3.0):
    server.start()
    deadline = clock.now_us + s_to_us(duration_s)
    while clock.now_us < deadline and server.running:
        server.tick()
        for bot in bots:
            bot.step(clock.now_us)
    server.running = False
    return server.telemetry.tick_ms.tolist()


class TestSessionParity:
    def test_session_path_bit_identical_to_direct_path(self):
        def bots_old(server):
            rng = np.random.default_rng(123)
            return [
                OldStyleBot(
                    f"bot-{i}",
                    server,
                    rng,
                    BoundedRandomWalk(0.0, 0.0, 32.0, 32.0),
                    spawn_x=4.0 + i,
                    spawn_z=6.0 + i,
                )
                for i in range(3)
            ]

        def bots_new(server):
            rng = np.random.default_rng(123)
            transport = InProcessTransport(server)
            return [
                EmulatedPlayer(
                    f"bot-{i}",
                    transport.session(),
                    rng,
                    behavior=BoundedRandomWalk(0.0, 0.0, 32.0, 32.0),
                    spawn_x=4.0 + i,
                    spawn_z=6.0 + i,
                )
                for i in range(3)
            ]

        server_a, clock_a = build_server()
        ticks_a = drive(server_a, clock_a, bots_old(server_a))
        server_b, clock_b = build_server()
        ticks_b = drive(server_b, clock_b, bots_new(server_b))

        assert ticks_a == ticks_b
        assert server_a.telemetry.snapshot() == server_b.telemetry.snapshot()
        assert server_a.telemetry.response_ms == server_b.telemetry.response_ms
        assert server_a.net.stats.counts == server_b.net.stats.counts
        assert server_a.net.stats.bytes_ == server_b.net.stats.bytes_

    def test_bot_response_samples_agree(self):
        server_a, clock_a = build_server(seed=11)
        rng_a = np.random.default_rng(42)
        old = OldStyleBot(
            "probe", server_a, rng_a, BoundedRandomWalk(0.0, 0.0, 16.0, 16.0)
        )
        drive(server_a, clock_a, [old])

        server_b, clock_b = build_server(seed=11)
        rng_b = np.random.default_rng(42)
        new = EmulatedPlayer(
            "probe",
            InProcessTransport(server_b).session(),
            rng_b,
            behavior=BoundedRandomWalk(0.0, 0.0, 16.0, 16.0),
        )
        drive(server_b, clock_b, [new])

        assert old.response_times_ms == server_b.telemetry.response_ms.tolist()
        assert old.response_times_ms  # the run actually sampled probes


class TestTransportApi:
    def test_as_transport_normalizes_servers_and_passes_transports(self):
        server, _ = build_server()
        transport = as_transport(server)
        assert isinstance(transport, InProcessTransport)
        assert as_transport(transport) is transport

    def test_session_is_the_only_surface_bots_need(self):
        server, clock = build_server()
        session = InProcessTransport(server).session()
        assert isinstance(session, ServerSession)
        info = session.connect("solo", 8.0, 8.0, 1000, 1000)
        assert session.connected
        assert session.now_us() == clock.now_us
        assert session.ground_height(8, 8) >= 1
        server.start()
        session.submit(
            PlayerAction(ActionKind.CHAT, info.client_id, (1, 32)),
            clock.now_us,
        )
        for _ in range(40):
            server.tick()
        deliveries = session.poll_deliveries()
        assert [d.category for d in deliveries].count(PacketCategory.CHAT) == 1
        # Drain semantics: a second poll returns nothing new.
        assert session.poll_deliveries() == []
        session.disconnect("test over")
        assert not session.connected
        assert session.poll_deliveries() == []

    def test_swarm_accepts_server_or_transport_identically(self):
        results = []
        for wrap in (lambda s: s, InProcessTransport):
            server, clock = build_server(seed=3)
            swarm = BotSwarm(
                wrap(server),
                get_environment("das5").network,
                np.random.default_rng(9),
            )
            swarm.add_player_workload(n_bots=3)
            server.start()
            deadline = clock.now_us + s_to_us(2.0)
            while clock.now_us < deadline and server.running:
                server.tick()
                swarm.step()
            server.running = False
            results.append(
                (
                    server.telemetry.response_ms,
                    server.telemetry.tick_ms,
                    server.telemetry.snapshot(),
                )
            )
        assert results[0] == results[1]


class TestIterationDeterminism:
    def test_run_iteration_still_bit_identical(self):
        # The refactor must not perturb the measurement loop: two
        # identically-seeded iterations agree on every serialized field.
        kwargs = dict(
            workload_name="players",
            server_name="vanilla",
            environment_name="das5",
            duration_s=2.0,
            seed=17,
            n_bots=3,
        )
        first = run_iteration(**kwargs).to_dict()
        second = run_iteration(**kwargs).to_dict()
        assert first == second
        assert first["telemetry"]["tick"]["ticks"] > 0

    def test_inproc_transport_knob_does_not_change_results(self):
        kwargs = dict(
            workload_name="players",
            server_name="vanilla",
            environment_name="das5",
            duration_s=2.0,
            seed=23,
            n_bots=2,
        )
        default = run_iteration(**kwargs).to_dict()
        explicit = run_iteration(
            **kwargs, transport="inproc", wire_port=0
        ).to_dict()
        assert default == explicit


class TestEndpointEncapsulation:
    def test_deliveries_are_private_with_drain_accessor(self):
        server, clock = build_server()
        conn = server.connect_client("cap", 8.0, 8.0, 0, 0)
        endpoint = server.net.client(conn.client_id)
        assert not hasattr(endpoint, "deliveries")
        server.start()
        server.submit_action(
            PlayerAction(ActionKind.CHAT, conn.client_id, (1, 32)),
            clock.now_us,
        )
        for _ in range(40):
            server.tick()
        drained = endpoint.drain_deliveries()
        assert drained
        # The drain handed them over: nothing stays buffered.
        assert endpoint.drain_deliveries() == []
