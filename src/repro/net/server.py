"""The asyncio TCP front end: one ``MLGServer`` behind real sockets.

The simulation stays SimClock-driven and bit-deterministic; this layer
paces its ticks against wall time (one tick per ``TICK_BUDGET_US`` of
real time unless ``realtime=False``), accepts client connections, feeds
their actions into :class:`~repro.mlg.netqueue.NetworkQueues` through the
normal ``submit_action`` path, and materializes the tick's outbound
traffic as real frames:

- materialized deliveries (chat echoes) become ``DELIVERY`` frames;
- the tick's *counted* packets (``PacketStats`` delta) become ``STATE``
  frames padded to the Table 8 model sizes, except entity moves, which
  become one batched ``ENTITY_BATCH`` frame per client;
- every flush ends with a ``TICK`` clock-sync frame.

Nobody reads what a counted packet says — its bytes are the point — so
the ``count`` packets of a category are always frames ``0..count-1`` of
one synthetic sequence, and a flush copies them out of a table of
encoded runs (:class:`_RunTable`) instead of encoding them again: a
steady-state tick encodes its deliveries and its ``TICK``, nothing else.

A client's flush is a stream, not a buffer: it is cut at frame ends
into pieces of at most ``_PIECE_BYTES`` (a single larger frame is a
piece of its own), the frames past the run table are encoded as their
piece is due, and each piece is written and drained before the next is
composed.  A joining client's view — one 13 KB ``chunk_data`` frame per
chunk — therefore costs the server one piece plus the transport's
high-water mark at a time, not the whole view, however many clients
join in one tick.  A steady-state tick is one piece per client, and a
drain that finds the transport unpaused does not yield.

Keepalive/timeout semantics are the simulation's own: the sim counts
keepalives and ages clients out after ``CLIENT_TIMEOUT_US``; this layer
just closes the socket of any endpoint the sim disconnected, and clients
independently age out the server on their own wall clock.  What this
layer adds is the socket's own boundary: a connection has
``_HANDSHAKE_TIMEOUT_S`` to say ``HELLO`` before it is closed, and a
peer that sends a frame this end does not read — garbage, or a type only
a server sends — is disconnected alone with a ``protocol error`` reason.

Wire measurements published to the server's telemetry bus, under the
stream names the metric catalog declares
(:mod:`repro.telemetry.catalog`): ``wire_bytes_in``/``wire_bytes_out``
per tick, ``wire_flush_us`` (wall time spent composing, writing and
draining a flush), and ``wire_connects`` (one sample per accepted
connection — the connect-storm counter).
"""

from __future__ import annotations

import asyncio
import time
from bisect import bisect_right
from collections.abc import Iterator

import numpy as np

from repro.lifetimes import weak_method
from repro.mlg import wirecodec as wc
from repro.mlg.constants import CLIENT_TIMEOUT_US, TICK_BUDGET_US
from repro.mlg.protocol import PacketCategory
from repro.simtime import s_to_us, us_to_s
from repro.telemetry.catalog import (
    WIRE_BYTES_IN,
    WIRE_BYTES_OUT,
    WIRE_CONNECTS,
    WIRE_FLUSH_US,
    WIRE_STREAMS,
)
from repro.telemetry.summary import summarize, total

__all__ = ["WireServer", "wire_metrics_snapshot"]

_READ_CHUNK = 65536

#: Wall seconds a new connection has to complete its ``HELLO``: what the
#: simulation gives a client that has gone quiet.
_HANDSHAKE_TIMEOUT_S = us_to_s(CLIENT_TIMEOUT_US)

#: The message types this end acts on; a peer that sends any other is
#: not a client.
_SERVER_READS = (
    wc.MSG_HELLO, wc.MSG_ACTION, wc.MSG_RESPONSE_SAMPLE, wc.MSG_BYE,
)

#: Encoded bytes the run table keeps per category.  The frames of a
#: larger count — a joining client's 289 ``chunk_data`` frames of 13 KB
#: each — are encoded one by one past it, as their piece is due.
_RUN_TABLE_BYTES = 1 << 16

#: Bytes of one piece of a client's flush, the unit the server writes
#: and then drains.  With the transport's own 64 KiB high-water mark it
#: bounds what the server holds per client, whatever the view size.
_PIECE_BYTES = 1 << 16


#: Deterministic schema-valid payload of the ``index``-th counted packet
#: of a category in one flush.
_SYNTH_PAYLOAD = {
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


def _synth_batch(count: int) -> np.ndarray:
    """The ``ENTITY_MOVE`` payloads of ``count`` packets as batch rows."""
    rows = np.empty((count, 4), dtype=np.int64)
    rows[:, 0] = np.arange(count)
    rows[:, 1:] = _SYNTH_PAYLOAD[PacketCategory.ENTITY_MOVE](0)[1:]
    return rows


class _RunTable:
    """The encoded counted packets of every category, kept as runs.

    The ``count`` packets a client is sent of a category are frames
    ``0..count-1`` of one fixed sequence (``_SYNTH_PAYLOAD``), whatever
    the tick and the client, so their bytes are a prefix of one string
    per category: ``run``, grown frame by frame the first time a count
    reaches that far, with ``ends[k]`` the length of its first ``k``
    frames.  A run stops growing at ``_RUN_TABLE_BYTES``; the frames of
    a larger count are encoded behind it, one by one.

    The batched ``ENTITY_MOVE`` rows ``(i, 1, 0, -1)`` are four one-byte
    varints each (an id delta of 0 or 1, then 1, 0, -1), so the fields
    of ``n`` rows are the first ``4 * n`` bytes of the fields of any
    ``N >= n`` rows, under the same bound.
    """

    def __init__(self) -> None:
        self._runs = {
            category: (bytearray(), [0]) for category in _SYNTH_PAYLOAD
        }
        self._batch_fields = b""

    def states(self, category: str, count: int) -> Iterator[bytes]:
        """The ``STATE`` frames of ``count`` counted packets, in groups
        of whole frames no larger than ``_PIECE_BYTES`` but for a single
        frame.  A group is a copy, not a view of the run: a view still
        alive anywhere would stop the run from growing."""
        run, ends = self._runs[category]
        synth = _SYNTH_PAYLOAD[category]
        while len(ends) <= count and len(run) < _RUN_TABLE_BYTES:
            wc.append_state(run, category, synth(len(ends) - 1))
            ends.append(len(run))
        held = min(count, len(ends) - 1)
        start = 0
        while start < held:
            fit = bisect_right(ends, ends[start] + _PIECE_BYTES, hi=held + 1)
            stop = max(start + 1, fit - 1)
            yield run[ends[start] : ends[stop]]
            start = stop
        for i in range(held, count):
            frame = bytearray()
            wc.append_state(frame, category, synth(i))
            yield frame

    def batch(self, count: int) -> bytearray:
        """The ``ENTITY_BATCH`` frame of ``count`` counted moves."""
        out = bytearray()
        size = 4 * count
        if size > _RUN_TABLE_BYTES:
            wc.append_entity_batch(out, _synth_batch(count))
            return out
        if size > len(self._batch_fields):
            self._batch_fields = wc.encode_batch_fields(_synth_batch(count))
        wc.append_batch_frame(out, count, self._batch_fields[:size])
        return out


def wire_metrics_snapshot(server) -> dict:
    """Sidecar-shaped summaries of the wire metrics (totals included)."""
    out: dict = {}
    for name in WIRE_STREAMS:
        values = np.array(server.telemetry.bus.stream(name)[:])
        out[name] = {**summarize(values), "total": total(values)}
    return out


class WireServer:
    """Serve one ``MLGServer`` over TCP for the span of an iteration."""

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        realtime: bool = True,
        on_tick=None,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self.realtime = realtime
        #: Called after every ``server.tick()`` (the slot the serve loop
        #: uses for ``SystemMetricsCollector.maybe_sample``).
        self.on_tick = on_tick
        self._asyncio_server: asyncio.base_events.Server | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: set[asyncio.Task] = set()
        self._prev_counts: dict[str, int] = {}
        self._runs = _RunTable()
        self._bytes_in_tick = 0
        self._tick_index = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        # The listening server keeps its connection callback, so it gets
        # a weak one: this object and its asyncio server form no cycle.
        self._asyncio_server = await asyncio.start_server(
            weak_method(self._handle_client), self.host, self.port
        )
        # Port 0 asks the OS for an ephemeral port; record what it chose.
        self.port = self._asyncio_server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
        for task in list(self._reader_tasks):
            task.cancel()
        for writer in list(self._writers.values()):
            writer.close()
        self._writers.clear()

    # -- per-connection plumbing --------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._reader_tasks.add(task)
        client_id: int | None = None
        reason = "socket closed"
        decoder = wc.FrameDecoder(_SERVER_READS)
        try:
            try:
                hello, pending = await asyncio.wait_for(
                    self._read_hello(reader, decoder), _HANDSHAKE_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                return  # connected and said nothing: not a client
            view_kwargs = (
                {}
                if hello.view_distance is None
                else {"view_distance": hello.view_distance}
            )
            conn = self.server.connect_client(
                hello.name,
                hello.spawn_x,
                hello.spawn_z,
                hello.latency_up_us,
                hello.latency_down_us,
                **view_kwargs,
            )
            client_id = conn.client_id
            self._writers[client_id] = writer
            writer.write(
                wc.encode_welcome(
                    client_id, conn.x, conn.y, conn.z,
                    self.server.clock.now_us,
                )
            )
            await writer.drain()
            self.server.telemetry.bus.publish(WIRE_CONNECTS, 1.0)
            for msg in pending:
                self._handle_message(client_id, msg)
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break
                self._bytes_in_tick += len(chunk)
                for msg in decoder.feed(chunk):
                    self._handle_message(client_id, msg)
        except (ConnectionError, asyncio.CancelledError):
            pass
        except wc.ProtocolError as exc:
            # This peer does not speak the protocol: drop it alone.  The
            # tick loop and the other clients go on.
            reason = f"protocol error: {exc}"
        finally:
            if task is not None:
                self._reader_tasks.discard(task)
            if client_id is not None:
                self.server.net.disconnect(client_id, reason)
                self._writers.pop(client_id, None)
            writer.close()

    async def _read_hello(
        self, reader: asyncio.StreamReader, decoder: wc.FrameDecoder
    ) -> tuple[wc.WireHello, list]:
        """Read up to the peer's ``HELLO``; returns it with the messages
        that arrived around it."""
        pending: list = []
        hello: wc.WireHello | None = None
        while hello is None:
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                raise ConnectionResetError("closed before its HELLO")
            self._bytes_in_tick += len(chunk)
            for msg in decoder.feed(chunk):
                if hello is None and isinstance(msg, wc.WireHello):
                    hello = msg
                else:
                    pending.append(msg)
        return hello, pending

    def _handle_message(self, client_id: int, msg) -> None:
        if isinstance(msg, wc.WireAction):
            # A client may only speak for its own connection.
            if msg.action.client_id == client_id:
                self.server.submit_action(msg.action, msg.sent_at_us)
        elif isinstance(msg, wc.WireResponseSample):
            # Client-side measurement, streamed back as it completes.
            self.server.telemetry.observe_response(msg.response_ms)
        elif isinstance(msg, wc.WireBye):
            self.server.net.disconnect(client_id, msg.reason)

    # -- the tick flush ------------------------------------------------------

    def _build_flush(self) -> list[tuple[int, Iterator[bytearray]]]:
        """Share out this tick's outbound traffic: per client, the pieces
        of its flush, composed as they are taken."""
        net = self.server.net
        counts = net.stats.counts
        delta: dict[str, int] = {}
        for category, count in counts.items():
            moved = count - self._prev_counts.get(category, 0)
            if moved:
                delta[category] = moved
        self._prev_counts = dict(counts)
        targets: list[tuple[int, list, list]] = []
        for client_id in sorted(self._writers):
            endpoint = net.client(client_id)
            if endpoint is None or endpoint.disconnected:
                continue
            # 1. Materialized deliveries (chat echoes) — shared drain path.
            deliveries = endpoint.drain_deliveries()
            for delivery in deliveries:
                delta[delivery.category] = (
                    delta.get(delivery.category, 0) - 1
                )
            targets.append((client_id, deliveries, []))
        if not targets:
            return []
        # 2. Counted state packets: distribute the tick's PacketStats
        # delta across connected clients (it was recorded per client).
        n_clients = len(targets)
        for category in PacketCategory.ALL:
            remaining = delta.get(category, 0)
            if remaining <= 0:
                continue
            per, extra = divmod(remaining, n_clients)
            for index, (_, _, shares) in enumerate(targets):
                count = per + (1 if index < extra else 0)
                if count:
                    shares.append((category, count))
        # 3. Clock sync.
        tick = wc.encode_tick(self.server.clock.now_us, self._tick_index)
        return [
            (client_id, self._pieces(deliveries, shares, tick))
            for client_id, deliveries, shares in targets
        ]

    def _pieces(self, deliveries, shares, tick: bytes) -> Iterator[bytearray]:
        """One client's flush, cut at frame ends into pieces of at most
        ``_PIECE_BYTES`` (a larger frame is a piece of its own).  Each
        piece is a new buffer, never touched once it is yielded."""
        piece = bytearray()
        for frames in self._frames(deliveries, shares, tick):
            if piece and len(piece) + len(frames) > _PIECE_BYTES:
                yield piece
                piece = bytearray()
            piece += frames
        yield piece

    def _frames(self, deliveries, shares, tick: bytes) -> Iterator[bytes]:
        """One client's frames in flush order, in groups of whole frames
        no larger than ``_PIECE_BYTES`` but for a single frame."""
        for delivery in deliveries:
            frame = bytearray()
            wc.append_delivery(
                frame,
                delivery.category,
                delivery.payload,
                delivery.delivered_at_us,
            )
            yield frame
        for category, count in shares:
            if category == PacketCategory.ENTITY_MOVE:
                yield self._runs.batch(count)
            else:
                yield from self._runs.states(category, count)
        yield tick

    async def _flush(self) -> None:
        flush_start = time.perf_counter()
        bytes_out = 0
        for client_id, pieces in self._build_flush():
            for piece in pieces:
                # A drain may yield: test again that the client is there.
                writer = self._writers.get(client_id)
                if writer is None:
                    break
                writer.write(piece)
                bytes_out += len(piece)
                try:
                    await writer.drain()
                except OSError:
                    break  # a dead socket; its reader task ends on it
        flush_us = (time.perf_counter() - flush_start) * 1e6
        bus = self.server.telemetry.bus
        bus.publish(WIRE_BYTES_OUT, float(bytes_out))
        bus.publish(WIRE_BYTES_IN, float(self._bytes_in_tick))
        bus.publish(WIRE_FLUSH_US, flush_us)
        self._bytes_in_tick = 0
        # Close the socket of anyone the sim disconnected (timeouts,
        # byes): the client sees EOF instead of silence.
        for client_id in list(self._writers):
            endpoint = self.server.net.client(client_id)
            if endpoint is not None and endpoint.disconnected:
                self._writers.pop(client_id).close()

    # -- the serve loop ------------------------------------------------------

    async def run(self, duration_s: float) -> None:
        """Tick the simulation for ``duration_s`` simulated seconds,
        flushing the wire after every tick.  With ``realtime`` the loop
        paces one tick per 50 ms of wall time (a fast tick sleeps the
        remainder; an overloaded one runs back-to-back, just like a real
        server); otherwise it only yields to the reader tasks."""
        budget_s = TICK_BUDGET_US / 1e6
        deadline = self.server.clock.now_us + s_to_us(duration_s)
        while self.server.clock.now_us < deadline and self.server.running:
            wall_start = time.perf_counter()
            self.server.tick()
            if self.on_tick is not None:
                self.on_tick()
            await self._flush()
            self._tick_index += 1
            if self.server.crashed:
                break
            if self.realtime:
                elapsed = time.perf_counter() - wall_start
                await asyncio.sleep(max(0.0, budget_s - elapsed))
            else:
                await asyncio.sleep(0)
