"""The socket boundary fails closed.

Bytes from a TCP peer are the one input of the wire path this program
does not write itself.  ``FrameDecoder`` must answer anything with
messages or a ``ProtocolError`` while holding a bounded buffer, and
``WireServer`` must drop the one client that sent it — through the
simulation's own ``net.disconnect``, with a reason — while the tick loop
and every other client go on.  The client end drops a server that sends
it such bytes, and the fleet's summary names the error.
"""

import asyncio
import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.cli import main as cli_main
from repro.cloud.providers import get_environment
from repro.mlg import wirecodec as wc
from repro.mlg.server import MLGServer
from repro.net import run_clients
from repro.net import server as wire_server
from repro.net.client import _CLIENT_READS
from repro.net.server import WireServer
from repro.simtime import SimClock
from repro.workloads import get_workload

TICK = wc.encode_tick(50_000, 1)


class TestDecoderFailsClosed:
    def test_overlong_length_prefix(self):
        decoder = wc.FrameDecoder()
        with pytest.raises(wc.ProtocolError, match="length prefix"):
            decoder.feed(b"\xff" * 12)
        # Nothing of the bad stream is kept: the buffer does not grow, and
        # a decoder reused by mistake is not wedged.
        assert decoder.pending_bytes == 0
        assert decoder.feed(TICK) == [wc.WireTick(50_000, 1)]

    def test_declared_length_beyond_the_frame_bound(self):
        decoder = wc.FrameDecoder()
        with pytest.raises(wc.ProtocolError, match="MAX_FRAME_BYTES"):
            decoder.feed(wc.encode_varint(1 << 40))
        assert decoder.pending_bytes == 0
        # The bound itself is a frame the decoder still waits for.
        assert decoder.feed(wc.encode_varint(wc.MAX_FRAME_BYTES)) == []

    def test_zero_length_body(self):
        with pytest.raises(wc.ProtocolError, match="zero-length"):
            wc.FrameDecoder().feed(b"\x00")

    def test_unknown_type_byte(self):
        with pytest.raises(wc.ProtocolError, match="unknown wire message"):
            wc.FrameDecoder().feed(b"\x01\x63")
        with pytest.raises(wc.ProtocolError):
            wc.decode_frame(b"\x01\x63")

    @pytest.mark.parametrize(
        "body",
        (
            bytes((wc.MSG_STATE, 200, 0, 0)),  # no such category
            bytes((wc.MSG_STATE,)),  # no category byte at all
            bytes((wc.MSG_ACTION, 9, 1, 1)),  # no such action kind
            bytes((wc.MSG_TICK, 0x80)),  # varint runs off the body
            bytes((wc.MSG_RESPONSE_SAMPLE, 1, 2, 3)),  # short float
            bytes((wc.MSG_BYE, 2, 0xFF, 0xFE)),  # not utf-8
            bytes((wc.MSG_ENTITY_BATCH, 3, 2, 2)),  # fewer moves than declared
        ),
    )
    def test_malformed_bodies(self, body):
        frame = wc.encode_varint(len(body)) + body
        with pytest.raises(ValueError):
            wc.decode_frame(frame)
        decoder = wc.FrameDecoder()
        with pytest.raises(wc.ProtocolError):
            decoder.feed(TICK + frame)
        assert decoder.pending_bytes == 0

    def test_truncated_length_prefix_waits_for_more_bytes(self):
        frame = wc.encode_state("chunk_data", (3, -3))  # two-byte prefix
        assert frame[0] >= 0x80
        decoder = wc.FrameDecoder()
        assert decoder.feed(frame[:1]) == []
        assert decoder.pending_bytes == 1
        assert decoder.feed(frame[1:]) == [wc.WireState("chunk_data", (3, -3))]

    @given(st.lists(st.binary(max_size=64), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_streams_raise_protocol_error_only(self, chunks):
        decoder = wc.FrameDecoder()
        for chunk in chunks:
            try:
                decoder.feed(chunk)
            except wc.ProtocolError:
                assert decoder.pending_bytes == 0
            # One frame of at most MAX_FRAME_BYTES and its prefix, ever.
            assert decoder.pending_bytes <= wc.MAX_FRAME_BYTES + 10

    def test_frame_bound_admits_what_the_simulation_sends(self):
        chunk = wc.encode_state("chunk_data", (1, -1))
        assert len(chunk) <= wc.MAX_FRAME_BYTES
        # The TNT cuboid's 3 584 primed blocks, all moving, ten times over.
        batch = wc.encode_entity_batch(
            tuple((i, 500, -500, 500) for i in range(35_840))
        )
        assert len(batch) <= wc.MAX_FRAME_BYTES
        assert len(wc.FrameDecoder().feed(chunk + batch)) == 2


_FIELD = {
    "uv": st.integers(0, (1 << 40) - 1),
    "sv": st.integers(-(1 << 40), (1 << 40) - 1),
    "u8": st.integers(0, 255),
    "f32": st.floats(width=32, allow_nan=False),
}


def _payloads(schemas: dict):
    """(name, payload) pairs that fit one of ``schemas``."""
    return st.sampled_from(sorted(schemas)).flatmap(
        lambda name: st.tuples(
            st.just(name), st.tuples(*(_FIELD[tag] for tag in schemas[name]))
        )
    )


_STAMP = st.integers(0, (1 << 50) - 1)

#: One valid frame of a type a server sends.
_frames = st.one_of(
    st.builds(wc.encode_tick, _STAMP, st.integers(0, 1 << 20)),
    _payloads(wc.CATEGORY_SCHEMAS).map(lambda p: wc.encode_state(*p)),
    st.tuples(_payloads(wc.CATEGORY_SCHEMAS), _STAMP).map(
        lambda p: wc.encode_delivery(*p[0], p[1])
    ),
    st.lists(
        st.tuples(*(st.integers(-(1 << 30), 1 << 30) for _ in range(4))),
        max_size=12,
    ).map(wc.encode_entity_batch),
    st.builds(
        wc.encode_welcome,
        st.integers(0, 1 << 20),
        *(st.floats(allow_nan=False) for _ in "xyz"),
        _STAMP,
    ),
)

#: One valid frame of a type only a client sends.
_stray_frames = st.one_of(
    st.builds(wc.encode_bye, st.text(max_size=8)),
    st.builds(wc.encode_response_sample, st.floats(allow_nan=False)),
    st.builds(
        wc.encode_hello,
        st.text(max_size=8),
        *(st.floats(width=32, allow_nan=False) for _ in "xz"),
        *(st.integers(0, 1 << 20) for _ in range(2)),
    ),
)



def _reframed(frame: bytes, keep: int) -> bytes:
    """``frame`` with its body cut to ``keep`` bytes (never fewer than
    the type byte) and a length prefix that says so: padding goes first,
    then fields."""
    length, start = wc.decode_varint(frame)
    body = frame[start : start + max(1, min(keep, length))]
    return wc.encode_varint(len(body)) + body


_cut_frames = st.builds(_reframed, _frames, st.integers(1, 24))

_CLIENT_MESSAGES = (wc.WireWelcome, wc.WireDelivery, wc.WireTick)
_TO_SERVER_MESSAGES = (
    wc.WireHello, wc.WireAction, wc.WireResponseSample, wc.WireBye,
)


class TestClientDecoderAgreesWithTheFullOne:
    """``FrameDecoder(_CLIENT_READS)`` is ``FrameDecoder()`` minus the
    messages nobody reads: same errors, same buffer, same read messages."""

    def test_unread_frames_are_walked_not_returned(self):
        stream = (
            wc.encode_state("chunk_data", (3, -3))
            + wc.encode_entity_batch([(1, 2, 3, 4), (300, -200, 100, 0)])
            + wc.encode_delivery("chat", (0, 7), 99)
            + wc.encode_state("entity_spawn", (1, 2, 0.5, 64.0, 0.5))
            + TICK
        )
        decoder = wc.FrameDecoder(_CLIENT_READS)
        assert decoder.feed(stream[:-1]) == [
            wc.WireDelivery("chat", (0, 7), 99)
        ]
        assert decoder.pending_bytes == len(TICK) - 1
        assert decoder.feed(stream[-1:]) == [wc.WireTick(50_000, 1)]

    @pytest.mark.parametrize(
        "body",
        (
            bytes((wc.MSG_STATE, 200, 0, 0)),  # no such category
            bytes((wc.MSG_STATE,)),  # no category byte at all
            bytes((wc.MSG_STATE, 0, 0x80)),  # field runs off the body
            bytes((wc.MSG_STATE, 0, 1, 2, 0, 0)),  # short float fields
            bytes((wc.MSG_ENTITY_BATCH, 3, 2, 2)),  # fewer moves than declared
            bytes((wc.MSG_ENTITY_BATCH, 1, 0x80, 1, 1, 0x80)),  # cut varint
            bytes((wc.MSG_ENTITY_BATCH, 1, 1, 1, 1) + (0x80,) * 11),  # too long
            bytes((wc.MSG_ENTITY_BATCH, 0x80)),  # no count
        ),
    )
    def test_unread_frames_fail_as_they_do_when_read(self, body):
        frame = TICK + wc.encode_varint(len(body)) + body
        with pytest.raises(wc.ProtocolError) as full:
            wc.FrameDecoder().feed(frame)
        decoder = wc.FrameDecoder(_CLIENT_READS)
        with pytest.raises(wc.ProtocolError) as client:
            decoder.feed(frame)
        assert str(client.value) == str(full.value)
        assert decoder.pending_bytes == 0

    def test_reads_must_be_what_one_end_reads(self):
        with pytest.raises(ValueError, match="no end of a connection"):
            wc.FrameDecoder((wc.MSG_HELLO, wc.MSG_TICK))
        with pytest.raises(ValueError, match="no end of a connection"):
            wc.FrameDecoder((wc.MSG_TICK,))  # nothing checks a WELCOME

    @given(
        frames=st.lists(_frames | _cut_frames, min_size=1, max_size=8),
        stray=st.none() | st.tuples(st.integers(0, 8), _stray_frames),
        mutations=st.lists(
            st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
            max_size=3,
        ),
        truncate=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 1 << 16), max_size=5),
    )
    @settings(max_examples=400, deadline=None)
    def test_differential(self, frames, stray, mutations, truncate, cuts):
        if stray is not None:
            frames.insert(*stray)
        stream = bytearray(b"".join(frames))
        for position, byte in mutations:
            stream[position % len(stream)] = byte
        del stream[len(stream) - min(truncate, len(stream) - 1) :]
        edges = sorted({0, len(stream), *(cut % len(stream) for cut in cuts)})
        full = wc.FrameDecoder()
        client = wc.FrameDecoder(_CLIENT_READS)
        for start, end in zip(edges, edges[1:]):
            chunk = bytes(stream[start:end])
            try:
                expected = full.feed(chunk)
                # A frame only a client sends is an error to a client.
                refused = any(
                    isinstance(m, _TO_SERVER_MESSAGES) for m in expected
                )
            except wc.ProtocolError:
                refused = True
            try:
                got = client.feed(chunk)
            except wc.ProtocolError:
                assert refused
                assert client.pending_bytes == 0
                return  # the connection is over
            assert not refused
            assert client.pending_bytes == full.pending_bytes
            # repr: a mutated WELCOME may carry a NaN.
            assert repr(got) == repr(
                [m for m in expected if isinstance(m, _CLIENT_MESSAGES)]
            )


async def _read_messages(reader, decoder, into: list) -> None:
    while True:
        chunk = await reader.read(65536)
        if not chunk:
            return
        into.extend(decoder.feed(chunk))


async def _join(port: int, name: str):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(wc.encode_hello(name, 8.0, 8.0, 0, 0, view_distance=0))
    await writer.drain()
    return reader, writer


class _Loopback:
    """An unpaced ``WireServer`` over a small control world, ticked by
    the test between the steps of its scenario."""

    def __init__(self) -> None:
        env = get_environment("das5")
        self.server = MLGServer(
            "vanilla",
            env.create_machine(seed=5),
            world=get_workload("control").create_world(5),
            clock=SimClock(),
            seed=5,
        )
        self.server.start()
        self.wire = WireServer(self.server, port=0, realtime=False)

    async def tick_until(self, predicate) -> None:
        """Tick (and let the reader tasks run) until ``predicate()``."""
        for _ in range(400):
            if predicate():
                return
            await self.wire.run(0.05)
            await asyncio.sleep(0.005)
        raise AssertionError("the server never got there")

    async def join(self, name: str, into: list):
        """A client that says ``HELLO`` and collects what it is sent;
        returns its writer and the task reading for it."""
        joined = len(self.wire._writers)
        reader, writer = await _join(self.wire.port, name)
        await self.tick_until(lambda: len(self.wire._writers) == joined + 1)
        task = asyncio.create_task(
            _read_messages(reader, wc.FrameDecoder(), into)
        )
        return writer, task


def _tick_indices(messages: list) -> list:
    return [m.tick_index for m in messages if isinstance(m, wc.WireTick)]


@pytest.mark.parametrize(
    "bad_bytes, why",
    (
        (b"\xff" * 12, "bad frame length prefix"),
        # Well-formed frames of the types only a server sends.
        (wc.encode_welcome(1, 0.0, 64.0, 0.0, 0), "type 2 does not flow"),
        (wc.encode_delivery("chat", (0, 1), 5), "type 4 does not flow"),
        (wc.encode_state("chat", (0, 1)), "type 5 does not flow"),
        (
            wc.encode_entity_batch([(i, 1, 0, -1) for i in range(1 << 16)]),
            "type 6 does not flow",
        ),
        (TICK, "type 7 does not flow"),
    ),
    ids=("garbage", "welcome", "delivery", "state", "entity_batch", "tick"),
)
def test_misbehaving_client_is_dropped_alone(bad_bytes, why, monkeypatch):
    loopback = _Loopback()
    server, wire = loopback.server, loopback.wire
    good_messages: list = []
    bad_messages: list = []
    batches_built = []
    monkeypatch.setattr(
        wc,
        "WireEntityBatch",
        lambda moves, _cls=wc.WireEntityBatch: (
            batches_built.append(len(moves)) or _cls(moves)
        ),
    )

    async def scenario() -> None:
        await wire.start()
        try:
            good_writer, good = await loopback.join("good", good_messages)
            bad_writer, bad = await loopback.join("bad", bad_messages)
            await wire.run(0.25)
            bad_writer.write(bad_bytes)
            await bad_writer.drain()
            await loopback.tick_until(lambda: len(wire._writers) == 1)
            await wire.run(0.25)
            # The server closed the bad client's socket: its reader ends.
            await asyncio.wait_for(bad, timeout=10)
            bad_writer.close()
            good_writer.close()
            await asyncio.wait_for(good, timeout=10)
        finally:
            await wire.close()

    asyncio.run(scenario())

    (good_id,) = (
        m.client_id for m in good_messages if isinstance(m, wc.WireWelcome)
    )
    (bad_id,) = (
        m.client_id for m in bad_messages if isinstance(m, wc.WireWelcome)
    )
    bad_endpoint = server.net.client(bad_id)
    assert bad_endpoint.disconnected
    assert bad_endpoint.disconnect_reason.startswith("protocol error: ")
    assert why in bad_endpoint.disconnect_reason
    assert not server.crashed
    # Nothing was decoded for the peer before it was refused.
    assert 1 << 16 not in batches_built
    good_ticks = _tick_indices(good_messages)
    bad_ticks = _tick_indices(bad_messages)
    # The well-behaved client missed no tick and kept receiving them
    # after the other was dropped; the dropped one stopped receiving them.
    assert bad_ticks
    assert good_ticks == list(range(good_ticks[0], good_ticks[-1] + 1))
    assert good_ticks[-1] >= bad_ticks[-1] + 5
    assert server.net.client(good_id).disconnect_reason == "socket closed"


def test_silent_peer_is_dropped_at_the_handshake_deadline(monkeypatch):
    monkeypatch.setattr(wire_server, "_HANDSHAKE_TIMEOUT_S", 0.2)
    loopback = _Loopback()
    server, wire = loopback.server, loopback.wire
    good_messages: list = []

    async def scenario() -> None:
        await wire.start()
        try:
            silent_reader, silent_writer = await asyncio.open_connection(
                "127.0.0.1", wire.port
            )
            good_writer, good = await loopback.join("good", good_messages)
            # Both peers hold a reader task until the deadline passes ...
            assert len(wire._reader_tasks) == 2
            await loopback.tick_until(lambda: len(wire._reader_tasks) == 1)
            # ... and the silent one's socket is closed, not left open.
            assert await asyncio.wait_for(silent_reader.read(), 10) == b""
            silent_writer.close()
            await wire.run(0.25)
            good_writer.close()
            await asyncio.wait_for(good, timeout=10)
        finally:
            await wire.close()

    asyncio.run(scenario())

    # The silent peer never became a client of the simulation; the other
    # one was served every tick while the deadline ran and after it.
    assert len(server.net._clients) == 1
    good_ticks = _tick_indices(good_messages)
    assert len(good_ticks) >= 10
    assert good_ticks == list(range(good_ticks[0], good_ticks[-1] + 1))
    assert not server.crashed


class _UnknownFrameServer:
    """A stub server on its own thread and event loop: it welcomes each
    client and, once the bot has spoken, sends a frame of a type no end
    knows, then holds the socket open until the client hangs up."""

    BAD_FRAME = bytes([1, 99])  # length 1, type byte 99

    def __init__(self) -> None:
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._serve(),)
        )

    async def _handle(self, reader, writer) -> None:
        await reader.read(65536)  # the HELLO
        writer.write(wc.encode_welcome(1, 8.0, 65.0, 8.0, 0))
        await writer.drain()
        await reader.read(65536)  # the bot's join probe: it is connected
        writer.write(self.BAD_FRAME)
        await writer.drain()
        await reader.read()  # until the client closes
        writer.close()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "the stub server never bound"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10)


class TestClientNamesProtocolErrors:
    def test_fleet_summary_lists_the_error_and_keeps_connected(self):
        with _UnknownFrameServer() as stub:
            summary = run_clients("127.0.0.1", stub.port, 2, stagger_s=0)
        assert summary["connected"] == 2
        errors = summary["protocol_errors"]
        assert len(errors) == 2
        for name, error in zip(("wire-bot-0", "wire-bot-1"), sorted(errors)):
            assert error.startswith(f"{name}: ")
            assert "unknown wire message type 99" in error

    def test_repro_clients_exits_1_on_a_protocol_error(self, capsys):
        with _UnknownFrameServer() as stub:
            code = cli_main(
                ["clients", "--port", str(stub.port), "-n", "1",
                 "--stagger-s", "0"]
            )
        assert code == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["connected"] == 1
        assert len(summary["protocol_errors"]) == 1
