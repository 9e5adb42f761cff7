"""Flush byte identity: what ``WireServer`` writes for a tick.

``_build_flush`` encodes through the codec's layout tables and array
kernels, and hands each client its flush as a stream of pieces.  This
drives it on a stub server with a fixed ``PacketStats`` delta — all 14
categories, plus queued chat deliveries — and compares every client's
joined pieces with the same traffic composed frame by frame by the
scalar encoders the codec used to have (``tests/mlg/wire_oracle.py``).
That pins the bytes, the ``divmod`` distribution of counted packets over
clients, the debit a materialized delivery takes from its category, and
the closing ``TICK``.

The counted packets come out of the server's run table (a prefix of one
encoded string per category), so the comparison is repeated on a cold
table, on a warm one, over ticks whose counts grow and shrink, and past
the table's bound — and a steady-state tick is shown, by counting, to
encode no frame on the server and to build no message for a ``STATE``
or ``ENTITY_BATCH`` frame on the client.

A connect burst — two full views of 13 KB ``chunk_data`` frames and an
entity batch past the table — shows the stream's bound: no piece is
larger than ``_PIECE_BYTES`` unless it is one larger frame, and the
writer never holds more than a window and one frame between two drains.
"""

import asyncio
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mlg import wirecodec as wc
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.protocol import PACKET_SIZES, PacketCategory
from repro.mlg.workreport import WorkReport
from repro.net import server as wire_server
from repro.net.client import _CLIENT_READS
from repro.net.server import WireServer
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.catalog import WIRE_BYTES_OUT

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
    """The two ``StreamWriter`` calls a flush makes, with the pieces
    written and the most bytes held between two drains."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.pieces: list[bytes] = []
        self.held = 0
        self.most_held = 0

    def write(self, data) -> None:
        self.written += data
        self.pieces.append(bytes(data))
        self.held += len(data)
        self.most_held = max(self.most_held, self.held)

    async def drain(self) -> None:
        self.held = 0


def flushed(wire: WireServer) -> list[tuple[int, bytes]]:
    """``_build_flush``'s targets, each client's pieces joined."""
    return [
        (client_id, b"".join(pieces))
        for client_id, pieces in wire._build_flush()
    ]


def frame_sizes(data: bytes) -> list[int]:
    """The length of each whole frame in ``data``, prefix included."""
    sizes = []
    offset = 0
    while offset < len(data):
        body_len, body_at = wc.decode_varint(data, offset)
        sizes.append(body_at + body_len - offset)
        offset = body_at + body_len
    assert offset == len(data), "a piece ends inside a frame"
    return sizes


def assert_pieces_bounded(pieces, window: int) -> None:
    """Every piece is whole frames, at most ``window`` bytes unless it
    is a single larger frame."""
    for piece in pieces:
        sizes = frame_sizes(piece)
        assert len(piece) <= window or sizes == [len(piece)], sizes


def idle_wire_server(n_clients: int) -> WireServer:
    """A ``WireServer`` over a stub simulation with ``n_clients``
    connected and nothing counted yet."""
    net = NetworkQueues()
    for client_id in range(1, n_clients + 1):
        net.register_client(client_id, 0, 0, 25_000 * client_id)
    server = SimpleNamespace(
        net=net,
        clock=SimpleNamespace(now_us=NOW_US),
        telemetry=SimpleNamespace(bus=TelemetryBus()),
    )
    wire = WireServer(server)
    wire._tick_index = TICK_INDEX
    wire._writers = {
        client_id: StubWriter() for client_id in range(1, n_clients + 1)
    }
    return wire


def count_tick(wire: WireServer, counts: dict) -> None:
    """One more tick's counted packets."""
    for category, count in counts.items():
        wire.server.net.stats.record(category, count)


def stub_wire_server(n_clients: int):
    """A ``WireServer`` over a stub simulation that has just finished a
    tick: ``n_clients`` connected, counts recorded, chat echoes queued.
    Returns it with the deliveries queued per client id."""
    wire = idle_wire_server(n_clients)
    net = wire.server.net
    report = WorkReport()
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
    count_tick(
        wire,
        {
            category: count - net.stats.counts.get(category, 0)
            for category, count in TICK_COUNTS.items()
        },
    )
    return wire, deliveries


def expected_buffers(n_clients: int, deliveries=None, counts=TICK_COUNTS) -> dict:
    """The flush composed frame by frame with the oracle encoders."""
    buffers = {cid: bytearray() for cid in range(1, n_clients + 1)}
    remaining = dict(counts)
    for client_id, buf in buffers.items():
        for delivery in (deliveries or {}).get(client_id, ()):
            buf += oracle.encode_delivery(
                delivery.category, delivery.payload, delivery.delivered_at_us
            )
            remaining[delivery.category] -= 1
    for category in PacketCategory.ALL:
        per, extra = divmod(remaining.get(category, 0), n_clients)
        for index, buf in enumerate(buffers.values()):
            count = per + (1 if index < extra else 0)
            if count <= 0:
                continue
            if category == PacketCategory.ENTITY_MOVE:
                buf += oracle.encode_entity_batch(
                    tuple(SYNTH[category](i) for i in range(count))
                )
            else:
                for i in range(count):
                    buf += oracle.encode_state(category, SYNTH[category](i))
    for buf in buffers.values():
        buf += oracle.encode_tick(NOW_US, TICK_INDEX)
    return buffers


@pytest.mark.parametrize("n_clients", (1, 2, 3))
class TestFlushBytes:
    def test_every_buffer_matches_the_oracle(self, n_clients):
        wire, deliveries = stub_wire_server(n_clients)
        targets = flushed(wire)
        expected = expected_buffers(n_clients, deliveries)
        assert [cid for cid, _ in targets] == sorted(expected)
        for client_id, buf in targets:
            assert bytes(buf) == bytes(expected[client_id]), client_id
        # The delta was consumed: a second flush carries the tick alone.
        for _, buf in flushed(wire):
            assert bytes(buf) == oracle.encode_tick(NOW_US, TICK_INDEX)

    def test_published_bytes_out_is_what_was_written(self, n_clients):
        wire, deliveries = stub_wire_server(n_clients)
        asyncio.run(wire._flush())
        expected = expected_buffers(n_clients, deliveries)
        written = {cid: w.written for cid, w in wire._writers.items()}
        assert written == expected
        bytes_out = wire.server.telemetry.bus.series[WIRE_BYTES_OUT]
        assert bytes_out.tolist() == [
            sum(len(buf) for buf in written.values())
        ]


@pytest.mark.parametrize("n_clients", (1, 2, 3))
def test_flush_reconciles_with_the_table8_model_but_for_the_batches(
    n_clients,
):
    # Every delivery and every counted packet but an entity move is one
    # frame of exactly its modeled size; the moves are one batch frame
    # per client, and the clock sync is extra.
    wire, _ = stub_wire_server(n_clients)
    stats = wire.server.net.stats
    assert stats.total_bytes == sum(
        count * PACKET_SIZES[category]
        for category, count in TICK_COUNTS.items()
    )
    moves = TICK_COUNTS[PacketCategory.ENTITY_MOVE]
    per, extra = divmod(moves, n_clients)
    move = SYNTH[PacketCategory.ENTITY_MOVE]
    batches = sum(
        len(oracle.encode_entity_batch(
            tuple(move(i) for i in range(per + (index < extra)))
        ))
        for index in range(n_clients)
    )
    written = sum(len(buf) for _, buf in flushed(wire))
    tick = len(oracle.encode_tick(NOW_US, TICK_INDEX))
    assert written == (
        stats.total_bytes
        - moves * PACKET_SIZES[PacketCategory.ENTITY_MOVE]
        + batches
        + n_clients * tick
    )


def test_disconnected_clients_get_nothing_and_no_share():
    wire, _ = stub_wire_server(3)
    wire.server.net.disconnect(2, "client quit")
    targets = dict(flushed(wire))
    assert sorted(targets) == [1, 3]
    # The counted packets are split over the two clients still connected.
    moves = TICK_COUNTS[PacketCategory.ENTITY_MOVE]
    batch = oracle.encode_entity_batch(
        tuple((i, 1, 0, -1) for i in range(moves - moves // 2))
    )
    assert batch in targets[1]


def scaled(factor: float, plus: int = 0) -> dict:
    return {
        category: int(count * factor) + plus
        for category, count in TICK_COUNTS.items()
    }


#: The connect burst (two full views of 13 KB ``chunk_data`` frames) on
#: top of counts that outrun ``_RUN_TABLE_BYTES`` as ``STATE`` frames
#: (13 B an ``entity_move``) and as batch fields (4 B a move).
BURST = {
    PacketCategory.CHUNK_DATA: 2 * 324,
    PacketCategory.CHUNK_SECTION: 120,
    PacketCategory.ENTITY_MOVE: 3 * (wire_server._RUN_TABLE_BYTES // 4) + 7,
    PacketCategory.ENTITY_VELOCITY: 17,
}

#: Ticks fed to one server in this order: a cold table, the same counts
#: warm, counts that grow (the runs, their ``ends`` and the batch prefix
#: all extend), shrink, run past the bound, and come back.
TICK_SEQUENCE = (
    TICK_COUNTS,
    TICK_COUNTS,
    scaled(2.5, plus=3),
    scaled(0.3),
    {PacketCategory.KEEPALIVE: 1},
    BURST,
    scaled(1.0, plus=1),
)


@pytest.mark.parametrize("n_clients", (1, 2, 3))
def test_ticks_that_grow_shrink_and_outrun_the_run_table(n_clients):
    wire = idle_wire_server(n_clients)
    for tick, counts in enumerate(TICK_SEQUENCE):
        count_tick(wire, counts)
        expected = expected_buffers(n_clients, counts=counts)
        for client_id, buf in flushed(wire):
            assert buf == bytes(expected[client_id]), (tick, client_id)
    # What the table kept is bounded by a constant and one frame.
    for category, (run, ends) in wire._runs._runs.items():
        assert len(run) < wire_server._RUN_TABLE_BYTES + PACKET_SIZES[category]
        assert ends[-1] == len(run)
    assert len(wire._runs._batch_fields) <= wire_server._RUN_TABLE_BYTES


@pytest.mark.parametrize("n_clients", (1, 2, 3))
def test_a_connect_burst_streams_through_a_bounded_window(
    n_clients, monkeypatch
):
    wire = idle_wire_server(n_clients)
    count_tick(wire, BURST)
    window = wire_server._PIECE_BYTES
    expected = expected_buffers(n_clients, counts=BURST)
    # Frames past the run table are encoded as their piece is due: the
    # first piece of a client's stream costs a window's worth of them.
    encoded = []
    append_state = wc.append_state

    def counting(out, category, payload):
        encoded.append(category)
        append_state(out, category, payload)

    monkeypatch.setattr(wc, "append_state", counting)
    client_id, pieces = wire._build_flush()[0]
    first = next(pieces)
    assert encoded.count(PacketCategory.CHUNK_DATA) < 2 * window // (
        PACKET_SIZES[PacketCategory.CHUNK_DATA]
    )
    assert first + b"".join(pieces) == expected[client_id]
    # The same burst through _flush: the bytes, the bound on every piece
    # and on what the writer holds between two drains, and bytes out.
    wire = idle_wire_server(n_clients)
    count_tick(wire, BURST)
    asyncio.run(wire._flush())
    for client_id, writer in wire._writers.items():
        assert writer.written == expected[client_id]
        assert len(writer.written) > 10 * window
        assert_pieces_bounded(writer.pieces, window)
        largest = max(frame_sizes(bytes(writer.written)))
        assert writer.most_held <= window + largest
    bytes_out = wire.server.telemetry.bus.series[WIRE_BYTES_OUT]
    assert bytes_out.tolist() == [
        sum(len(writer.written) for writer in wire._writers.values())
    ]


@given(
    n_clients=st.integers(1, 5),
    bound=st.sampled_from((48, 700, wire_server._RUN_TABLE_BYTES)),
    window=st.sampled_from((1, 60, 900, wire_server._PIECE_BYTES)),
    ticks=st.lists(
        st.dictionaries(
            st.sampled_from(PacketCategory.ALL), st.integers(0, 60),
            max_size=6,
        ),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=60, deadline=None)
def test_random_deltas_match_the_oracle_and_the_bytes_out_metric(
    n_clients, bound, window, ticks
):
    wire = idle_wire_server(n_clients)
    written = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wire_server, "_RUN_TABLE_BYTES", bound)
        patch.setattr(wire_server, "_PIECE_BYTES", window)
        for counts in ticks:
            count_tick(wire, counts)
            asyncio.run(wire._flush())
            expected = expected_buffers(n_clients, counts=counts)
            for client_id, writer in wire._writers.items():
                assert writer.written == expected[client_id]
                assert_pieces_bounded(writer.pieces, window)
                written += len(writer.written)
                writer.written.clear()
                writer.pieces.clear()
    bytes_out = wire.server.telemetry.bus.series[WIRE_BYTES_OUT]
    assert sum(bytes_out) == written


def test_steady_state_tick_encodes_no_frame_and_builds_no_state_message(
    monkeypatch,
):
    wire = idle_wire_server(2)
    count_tick(wire, TICK_COUNTS)
    flushed(wire)  # the table is warm from here on

    calls = {"append_state": 0, "append_entity_batch": 0}

    def counting(name):
        inner = getattr(wc, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(wc, name, counting(name))
    built = []
    for name in ("WireState", "WireEntityBatch"):
        monkeypatch.setattr(
            wc,
            name,
            lambda *args, _name=name, _cls=getattr(wc, name): (
                built.append(_name) or _cls(*args)
            ),
        )

    counts = scaled(0.9)
    count_tick(wire, counts)
    targets = [
        (client_id, list(pieces)) for client_id, pieces in wire._build_flush()
    ]
    expected = expected_buffers(2, counts=counts)
    assert calls == {"append_state": 0, "append_entity_batch": 0}
    # A steady-state tick is one piece, one write and one drain, a client.
    assert [len(pieces) for _, pieces in targets] == [1, 1]
    targets = [(client_id, pieces[0]) for client_id, pieces in targets]
    for client_id, buf in targets:
        assert bytes(buf) == bytes(expected[client_id])
        # The client's decoder walks the STATE and ENTITY_BATCH frames
        # and hands back the tick alone ...
        assert wc.FrameDecoder(_CLIENT_READS).feed(bytes(buf)) == [
            wc.WireTick(NOW_US, TICK_INDEX)
        ]
    assert built == []
    # ... where the full decoder builds one message a frame.
    messages = wc.FrameDecoder().feed(bytes(targets[0][1]))
    assert len(messages) > 100
    assert len(built) == len(messages) - 1  # every frame but the tick
    assert built.count("WireEntityBatch") == 1
