"""Flush byte identity: what ``WireServer`` writes for a tick.

``_build_flush`` encodes in place through the codec's layout tables and
array kernels.  This drives it on a stub server with a fixed
``PacketStats`` delta — all 14 categories, plus queued chat deliveries —
and compares every client's buffer with the same traffic composed frame
by frame by the scalar encoders the codec used to have
(``tests/mlg/wire_oracle.py``).  That pins the bytes, the ``divmod``
distribution of counted packets over clients, the debit a materialized
delivery takes from its category, and the closing ``TICK``.
"""

import asyncio
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.mlg.netqueue import NetworkQueues
from repro.mlg.protocol import PACKET_SIZES, PacketCategory
from repro.mlg.workreport import WorkReport
from repro.net.server import WIRE_BYTES_OUT, WireServer
from repro.telemetry.bus import TelemetryBus

_spec = importlib.util.spec_from_file_location(
    "wire_oracle", Path(__file__).parents[1] / "mlg" / "wire_oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

NOW_US = 1_250_000
TICK_INDEX = 25

#: Packets counted in the tick, per category: every category appears,
#: with counts that the client counts tried do not divide evenly, counts
#: below the client count (some clients get none), and the farm's
#: entity load.
TICK_COUNTS = {
    PacketCategory.ENTITY_SPAWN: 5,
    PacketCategory.ENTITY_MOVE: 345,
    PacketCategory.ENTITY_VELOCITY: 167,
    PacketCategory.ENTITY_DESTROY: 4,
    PacketCategory.BLOCK_CHANGE: 7,
    PacketCategory.CHUNK_DATA: 2,
    PacketCategory.CHUNK_SECTION: 3,
    PacketCategory.LIGHT_UPDATE: 1,
    PacketCategory.SOUND_EFFECT: 300,  # payload ids wrap at 256
    PacketCategory.BLOCK_ENTITY_DATA: 2,
    PacketCategory.CHAT: 11,
    PacketCategory.KEEPALIVE: 1,
    PacketCategory.TIME_UPDATE: 2,
    PacketCategory.PLAYER_INFO: 1,
}

#: What the server's synthetic payload table must keep producing.
SYNTH = {
    PacketCategory.ENTITY_SPAWN: lambda i: (i, i % 7, 0.0, 64.0, 0.0),
    PacketCategory.ENTITY_MOVE: lambda i: (i, 1, 0, -1),
    PacketCategory.ENTITY_VELOCITY: lambda i: (i, 2, 0, -2),
    PacketCategory.ENTITY_DESTROY: lambda i: (i,),
    PacketCategory.BLOCK_CHANGE: lambda i: (i, 64, -i, 1),
    PacketCategory.CHUNK_DATA: lambda i: (i, -i),
    PacketCategory.CHUNK_SECTION: lambda i: (i, -i, i % 16),
    PacketCategory.LIGHT_UPDATE: lambda i: (i, -i),
    PacketCategory.SOUND_EFFECT: lambda i: (i % 256, i, 64, -i),
    PacketCategory.BLOCK_ENTITY_DATA: lambda i: (i, 64, -i),
    PacketCategory.CHAT: lambda i: (0, i),
    PacketCategory.KEEPALIVE: lambda i: (i,),
    PacketCategory.TIME_UPDATE: lambda i: (i * 20, i * 20 % 24_000),
    PacketCategory.PLAYER_INFO: lambda i: (i, 1),
}


class StubWriter:
    """The two ``StreamWriter`` calls a flush makes."""

    def __init__(self) -> None:
        self.written = bytearray()

    def write(self, data) -> None:
        self.written += data

    async def drain(self) -> None:
        pass


def stub_wire_server(n_clients: int, batch_flush: bool):
    """A ``WireServer`` over a stub simulation that has just finished a
    tick: ``n_clients`` connected, counts recorded, chat echoes queued.
    Returns it with the deliveries queued per client id."""
    net = NetworkQueues()
    report = WorkReport()
    for client_id in range(1, n_clients + 1):
        net.register_client(client_id, 0, 0, 25_000 * client_id)
    # Materialized chat echoes, which the flush sends as DELIVERY frames
    # and debits from the tick's counted chat packets.
    deliveries: dict[int, list] = {cid: [] for cid in range(1, n_clients + 1)}
    for probe, client_id in enumerate((1, n_clients, 1)):
        deliveries[client_id].append(
            net.deliver(
                client_id, PacketCategory.CHAT, (probe, 40 + probe),
                NOW_US, report,
            )
        )
    for category, count in TICK_COUNTS.items():
        net.stats.record(
            category, count - net.stats.counts.get(category, 0)
        )
    server = SimpleNamespace(
        net=net,
        clock=SimpleNamespace(now_us=NOW_US),
        telemetry=SimpleNamespace(bus=TelemetryBus()),
    )
    wire = WireServer(server, batch_flush=batch_flush)
    wire._tick_index = TICK_INDEX
    wire._writers = {cid: StubWriter() for cid in deliveries}
    return wire, deliveries


def expected_buffers(n_clients: int, batch_flush: bool, deliveries) -> dict:
    """The flush composed frame by frame with the oracle encoders."""
    buffers = {cid: bytearray() for cid in range(1, n_clients + 1)}
    remaining = dict(TICK_COUNTS)
    for client_id, buf in buffers.items():
        for delivery in deliveries[client_id]:
            buf += oracle.encode_delivery(
                delivery.category, delivery.payload, delivery.delivered_at_us
            )
            remaining[delivery.category] -= 1
    for category in PacketCategory.ALL:
        per, extra = divmod(remaining[category], n_clients)
        for index, buf in enumerate(buffers.values()):
            count = per + (1 if index < extra else 0)
            if count <= 0:
                continue
            if category == PacketCategory.ENTITY_MOVE and batch_flush:
                buf += oracle.encode_entity_batch(
                    tuple(SYNTH[category](i) for i in range(count))
                )
            else:
                for i in range(count):
                    buf += oracle.encode_state(category, SYNTH[category](i))
    for buf in buffers.values():
        buf += oracle.encode_tick(NOW_US, TICK_INDEX)
    return buffers


@pytest.mark.parametrize("batch_flush", (True, False))
@pytest.mark.parametrize("n_clients", (1, 2, 3))
class TestFlushBytes:
    def test_every_buffer_matches_the_oracle(self, n_clients, batch_flush):
        wire, deliveries = stub_wire_server(n_clients, batch_flush)
        targets = wire._build_flush()
        expected = expected_buffers(n_clients, batch_flush, deliveries)
        assert [cid for cid, _ in targets] == sorted(expected)
        for client_id, buf in targets:
            assert bytes(buf) == bytes(expected[client_id]), client_id
        # The delta was consumed: a second flush carries the tick alone.
        for _, buf in wire._build_flush():
            assert bytes(buf) == oracle.encode_tick(NOW_US, TICK_INDEX)

    def test_published_bytes_out_is_what_was_written(
        self, n_clients, batch_flush
    ):
        wire, deliveries = stub_wire_server(n_clients, batch_flush)
        asyncio.run(wire._flush())
        expected = expected_buffers(n_clients, batch_flush, deliveries)
        written = {cid: w.written for cid, w in wire._writers.items()}
        assert written == expected
        bytes_out = wire.server.telemetry.bus.metric(WIRE_BYTES_OUT)
        assert bytes_out.total == sum(len(buf) for buf in written.values())


@pytest.mark.parametrize("n_clients", (1, 2, 3))
def test_unbatched_flush_reconciles_with_the_table8_model(n_clients):
    # Without batching every counted packet and every delivery is one
    # frame of exactly its modeled size; only the clock sync is extra.
    wire, _ = stub_wire_server(n_clients, batch_flush=False)
    stats = wire.server.net.stats
    assert stats.total_bytes == sum(
        count * PACKET_SIZES[category]
        for category, count in TICK_COUNTS.items()
    )
    written = sum(len(buf) for _, buf in wire._build_flush())
    tick = len(oracle.encode_tick(NOW_US, TICK_INDEX))
    assert written == stats.total_bytes + n_clients * tick


def test_disconnected_clients_get_nothing_and_no_share():
    wire, _ = stub_wire_server(3, batch_flush=True)
    wire.server.net.disconnect(2, "client quit")
    targets = dict(wire._build_flush())
    assert sorted(targets) == [1, 3]
    # The counted packets are split over the two clients still connected.
    moves = TICK_COUNTS[PacketCategory.ENTITY_MOVE]
    batch = oracle.encode_entity_batch(
        tuple((i, 1, 0, -1) for i in range(moves - moves // 2))
    )
    assert batch in bytes(targets[1])
