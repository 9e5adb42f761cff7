"""The socket boundary fails closed.

Bytes from a TCP peer are the one input of the wire path this program
does not write itself.  ``FrameDecoder`` must answer anything with
messages or a ``ProtocolError`` while holding a bounded buffer, and
``WireServer`` must drop the one client that sent it — through the
simulation's own ``net.disconnect``, with a reason — while the tick loop
and every other client go on.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.providers import get_environment
from repro.mlg import wirecodec as wc
from repro.mlg.server import MLGServer
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


def test_misbehaving_client_is_dropped_alone():
    env = get_environment("das5")
    server = MLGServer(
        "vanilla",
        env.create_machine(seed=5),
        world=get_workload("control").create_world(5),
        clock=SimClock(),
        seed=5,
    )
    server.start()
    wire = WireServer(server, port=0, realtime=False)
    good_messages: list = []
    bad_messages: list = []

    async def tick_until(predicate) -> None:
        """Tick (and let the reader tasks run) until ``predicate()``."""
        for _ in range(400):
            if predicate():
                return
            await wire.run(0.05)
            await asyncio.sleep(0.005)
        raise AssertionError("the server never got there")

    async def scenario() -> None:
        await wire.start()
        try:
            good_reader, good_writer = await _join(wire.port, "good")
            await tick_until(lambda: len(wire._writers) == 1)
            bad_reader, bad_writer = await _join(wire.port, "bad")
            await tick_until(lambda: len(wire._writers) == 2)
            good = asyncio.create_task(
                _read_messages(good_reader, wc.FrameDecoder(), good_messages)
            )
            bad = asyncio.create_task(
                _read_messages(bad_reader, wc.FrameDecoder(), bad_messages)
            )
            await wire.run(0.25)
            bad_writer.write(b"\xff" * 12)
            await bad_writer.drain()
            await tick_until(lambda: len(wire._writers) == 1)
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
    assert not server.crashed
    good_ticks = [
        m.tick_index for m in good_messages if isinstance(m, wc.WireTick)
    ]
    bad_ticks = [
        m.tick_index for m in bad_messages if isinstance(m, wc.WireTick)
    ]
    # The well-behaved client missed no tick and kept receiving them
    # after the other was dropped; the dropped one stopped receiving them.
    assert bad_ticks
    assert good_ticks == list(range(good_ticks[0], good_ticks[-1] + 1))
    assert good_ticks[-1] >= bad_ticks[-1] + 5
    assert server.net.client(good_id).disconnect_reason == "socket closed"
