"""The separate-process client driver: N emulated players over TCP.

``repro clients --host --port -n N`` ramps ``N`` bots against a running
``repro serve`` front end.  The bots are the *same*
:class:`~repro.emulation.bot.EmulatedPlayer` code that drives in-process
runs — they just hold a :class:`TcpSession` (a
:class:`~repro.mlg.transport.ServerSession` over a socket) instead of an
in-process one.  Each completed chat-probe response streams back to the
server as a ``RESPONSE_SAMPLE`` frame, so the serve side owns the full
measurement record and writes the standard job record.

Clients keep the simulation's keepalive contract on their own wall
clock: a connection that goes ``CLIENT_TIMEOUT_US`` without any traffic
is abandoned, mirroring how real clients give up on a stalled server.
That deadline, and the fleet's run time, are one re-armed timer per
connection: a read carries no deadline of its own and only notes when
the last byte arrived.

A client acts on ``WELCOME``, ``DELIVERY`` and ``TICK``.  The ``STATE``
and ``ENTITY_BATCH`` frames in between are the world traffic a real
client would render; here their bytes cross the socket and the decoder
checks them, but no message is built for them.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.emulation.behavior import make_behavior
from repro.emulation.bot import EmulatedPlayer
from repro.mlg import wirecodec as wc
from repro.mlg.constants import CLIENT_TIMEOUT_US
from repro.mlg.transport import Delivery, ServerSession, SessionInfo
from repro.simtime import us_to_s
from repro.telemetry.summary import summarize

__all__ = ["TcpSession", "run_clients"]

_READ_CHUNK = 65536

#: Wall seconds without a byte from the server after which a connection
#: is abandoned.
_IDLE_TIMEOUT_S = us_to_s(CLIENT_TIMEOUT_US)

#: The message types a client acts on.  ``STATE`` and ``ENTITY_BATCH``
#: are world traffic the bot does not act on — their bytes are the point
#: (bandwidth realism) — so the decoder checks them and builds nothing.
_CLIENT_READS = (wc.MSG_WELCOME, wc.MSG_DELIVERY, wc.MSG_TICK)

#: Players workload movement box (matches ``BotSwarm.add_player_workload``).
_DEFAULT_AREA = (0.0, 0.0, 32.0, 32.0)


class TcpSession(ServerSession):
    """A :class:`ServerSession` bound to one TCP connection's writer.

    The fleet performs the HELLO/WELCOME handshake asynchronously before
    the bot exists; :meth:`connect` then just replays the negotiated
    welcome, and the synchronous bot-side calls (submit, poll, clock)
    map onto the connection's writer and the frames its reader buffered.
    The server clock is known from the last ``TICK``/``WELCOME`` frame;
    ground height is the client-side approximation (spawn terrain), the
    one piece of world knowledge a real client gets from chunk data.
    The session holds the writer, not the connection that owns its bot,
    so connection, bot and session form no reference cycle.
    """

    def __init__(self, writer: asyncio.StreamWriter, welcome: wc.WireWelcome):
        self._writer: asyncio.StreamWriter | None = writer
        self._welcome = welcome
        self._deliveries: list[Delivery] = []
        self._now_us = welcome.now_us
        self._ground = max(int(welcome.y) - 1, 1)
        self._open = True
        #: Every response sample this session sent, for the fleet summary.
        self.response_times_ms: list[float] = []

    # -- fleet-side feeding --------------------------------------------------

    def on_delivery(self, msg: wc.WireDelivery) -> None:
        self._deliveries.append(
            Delivery(
                self._welcome.client_id,
                msg.category,
                msg.payload,
                msg.delivered_at_us,
            )
        )

    def on_tick(self, now_us: int) -> None:
        self._now_us = now_us

    def mark_closed(self) -> None:
        """The socket is closing: frames sent from now on are dropped."""
        self._open = False
        self._writer = None

    def _send(self, frame: bytes) -> None:
        if self._writer is not None:
            self._writer.write(frame)

    # -- ServerSession -------------------------------------------------------

    def connect(
        self,
        name: str,
        spawn_x: float,
        spawn_z: float,
        latency_up_us: int,
        latency_down_us: int,
        view_distance: int | None = None,
    ) -> SessionInfo:
        welcome = self._welcome
        return SessionInfo(welcome.client_id, welcome.x, welcome.y, welcome.z)

    def disconnect(self, reason: str = "client quit") -> None:
        if self._open:
            self._send(wc.encode_bye(reason))
            self._open = False

    @property
    def connected(self) -> bool:
        return self._open

    def submit(self, action, sent_at_us: int) -> None:
        self._send(wc.encode_action(action, sent_at_us))

    def poll_deliveries(self) -> list[Delivery]:
        drained = self._deliveries
        self._deliveries = []
        return drained

    def ground_height(self, x: int, z: int) -> int:
        return self._ground

    def now_us(self) -> int:
        return self._now_us

    def record_response_ms(self, response_ms: float) -> None:
        self.response_times_ms.append(response_ms)
        self._send(wc.encode_response_sample(response_ms))


class _Connection:
    """One socket + decoder + bot, driven by the fleet's event loop."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        behavior_name: str,
        rng: np.random.Generator,
        probe_interval_s: float,
        latency_us: int,
        view_distance: int | None,
        trace: bool = False,
    ) -> None:
        self.index = index
        self.name = f"wire-bot-{index}"
        self.host = host
        self.port = port
        self.behavior_name = behavior_name
        self.rng = rng
        self.probe_interval_s = probe_interval_s
        self.latency_us = latency_us
        self.view_distance = view_distance
        self.connected = False
        self.ticks_seen = 0
        self.bot: EmulatedPlayer | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._last_rx = 0.0
        self._stop_at_wall: float | None = None
        self._timer: asyncio.TimerHandle | None = None
        #: Per-tick-cycle client spans (``trace=True`` only): each TICK
        #: frame closes one record decomposing the client's wall time —
        #: wait for the first byte, decode+dispatch up to the tick, the
        #: bot step (encode + buffered send), and the post-step drain.
        #: Stamped with the server's tick index and simulated ``now_us``
        #: so the spans align with the server's trace timeline.
        self.spans: list[dict] | None = [] if trace else None

    @property
    def response_times_ms(self) -> list[float]:
        if self.bot is None:
            return []
        return self.bot.session.response_times_ms

    def _on_deadline(self) -> None:
        """The connection's one timer: close the socket — the pending
        read then sees EOF — once the fleet's run time is up or the
        server has been silent for ``_IDLE_TIMEOUT_S``; until then re-arm
        for whichever comes first.  A read only moves ``_last_rx``."""
        now = time.monotonic()
        stop_at = self._stop_at_wall
        due = self._last_rx + _IDLE_TIMEOUT_S
        if stop_at is not None:
            due = min(due, stop_at)
        if now < due:
            self._timer = asyncio.get_running_loop().call_later(
                due - now, self._on_deadline
            )
            return
        if stop_at is not None and now >= stop_at and self.bot is not None:
            self.bot.session.disconnect("client done")
        self._writer.close()  # flushes what is buffered (the BYE) first

    async def run(self, stop_at_wall: float | None) -> None:
        spawn_x = float(self.rng.uniform(_DEFAULT_AREA[0], _DEFAULT_AREA[2]))
        spawn_z = float(self.rng.uniform(_DEFAULT_AREA[1], _DEFAULT_AREA[3]))
        try:
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
        except OSError:
            return
        self._writer = writer
        self._stop_at_wall = stop_at_wall
        self._last_rx = time.monotonic()
        self._on_deadline()
        decoder = wc.FrameDecoder(_CLIENT_READS)
        try:
            writer.write(
                wc.encode_hello(
                    self.name,
                    spawn_x,
                    spawn_z,
                    self.latency_us,
                    self.latency_us,
                    self.view_distance,
                )
            )
            await writer.drain()
            welcome: wc.WireWelcome | None = None
            backlog: list = []
            while welcome is None:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                self._last_rx = time.monotonic()
                for msg in decoder.feed(chunk):
                    if welcome is None and isinstance(msg, wc.WireWelcome):
                        welcome = msg
                    else:
                        backlog.append(msg)
            session = TcpSession(writer, welcome)
            # The bot's constructor "connects" (replaying the welcome)
            # and fires its join-time probe straight onto the wire.
            self.bot = EmulatedPlayer(
                self.name,
                session,
                self.rng,
                behavior=make_behavior(self.behavior_name, _DEFAULT_AREA),
                spawn_x=spawn_x,
                spawn_z=spawn_z,
                latency_up_us=self.latency_us,
                latency_down_us=self.latency_us,
                probe_interval_s=self.probe_interval_s,
            )
            self.connected = True
            await writer.drain()
            for msg in backlog:
                self._dispatch(session, msg)
            prev_done = time.monotonic()
            while True:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    break  # closed: by the server, or by the deadline
                recv_at = time.monotonic()
                self._last_rx = recv_at
                wait_us = (recv_at - prev_done) * 1e6
                stepped = False
                for msg in decoder.feed(chunk):
                    stepped = (
                        self._dispatch(session, msg, recv_at, wait_us)
                        or stepped
                    )
                    wait_us = 0.0  # only the chunk's first tick pays it
                if stepped:
                    if self.spans:
                        drain_start = time.monotonic()
                        await writer.drain()
                        self.spans[-1]["drain_us"] = round(
                            (time.monotonic() - drain_start) * 1e6, 1
                        )
                    else:
                        await writer.drain()
                prev_done = time.monotonic()
        except (ConnectionError, asyncio.CancelledError, wc.ProtocolError):
            pass  # a server that stops making sense is a server gone
        finally:
            if self._timer is not None:
                self._timer.cancel()
            if self.bot is not None:
                self.bot.session.mark_closed()
            writer.close()
            self._writer = None

    def _dispatch(
        self,
        session: TcpSession,
        msg,
        recv_at: float | None = None,
        wait_us: float = 0.0,
    ) -> bool:
        """Feed one server frame into the session; True when the bot
        stepped (a TICK frame arrived)."""
        if isinstance(msg, wc.WireDelivery):
            session.on_delivery(msg)
            return False
        if isinstance(msg, wc.WireTick):
            if self.spans is None:
                session.on_tick(msg.now_us)
                self.ticks_seen += 1
                if self.bot is not None:
                    self.bot.step(session.now_us())
                return True
            step_start = time.monotonic()
            dispatch_us = (
                (step_start - recv_at) * 1e6 if recv_at is not None else 0.0
            )
            session.on_tick(msg.now_us)
            self.ticks_seen += 1
            if self.bot is not None:
                self.bot.step(session.now_us())
            self.spans.append(
                {
                    "client": self.index,
                    "tick": msg.tick_index,
                    "now_us": msg.now_us,
                    "wait_us": round(wait_us, 1),
                    "dispatch_us": round(dispatch_us, 1),
                    "step_us": round(
                        (time.monotonic() - step_start) * 1e6, 1
                    ),
                    "drain_us": 0.0,
                }
            )
            return True
        return False


def run_clients(
    host: str,
    port: int,
    n: int,
    behavior: str = "bounded-random",
    stagger_s: float = 0.25,
    probe_interval_s: float = 1.0,
    duration_s: float | None = None,
    latency_us: int = 0,
    view_distance: int | None = None,
    seed: int = 0,
    trace_out: str | Path | None = None,
) -> dict:
    """Ramp ``n`` bots against a wire server; returns a summary dict.

    Bots connect with ``stagger_s`` of wall time between joins (the way
    real players trickle in — and the connect-storm knob: 0 connects
    everyone at once).  They run until the server closes the iteration,
    they time out, or ``duration_s`` wall seconds elapse.  Modeled
    latencies default to 0 on the wire: the real socket provides the
    delay the in-process network model simulates.

    ``trace_out`` enables client-side span collection and writes one
    JSONL line per (client, tick) decomposing the client's wall RTT
    (wait → dispatch → step → drain), stamped with the server's tick
    index.  Write it into a campaign's ``telemetry/`` directory with a
    ``.clientspans.jsonl`` suffix and ``repro trace export`` merges the
    stream into the campaign's Perfetto timeline.
    """
    connections = [
        _Connection(
            index=i,
            host=host,
            port=port,
            behavior_name=behavior,
            rng=np.random.default_rng(seed + i),
            probe_interval_s=probe_interval_s,
            latency_us=latency_us,
            view_distance=view_distance,
            trace=trace_out is not None,
        )
        for i in range(n)
    ]

    async def _ramp() -> None:
        stop_at = (
            time.monotonic() + duration_s if duration_s is not None else None
        )

        async def _one(conn: _Connection) -> None:
            await asyncio.sleep(conn.index * stagger_s)
            await conn.run(stop_at)

        await asyncio.gather(*(_one(conn) for conn in connections))

    asyncio.run(_ramp())

    samples: list[float] = []
    for conn in connections:
        samples.extend(conn.response_times_ms)
    summary = {
        "clients": n,
        "connected": sum(1 for conn in connections if conn.connected),
        "ticks_seen": max(
            (conn.ticks_seen for conn in connections), default=0
        ),
        "samples": len(samples),
    }
    if samples:
        stats = summarize(samples)
        summary["response_p50_ms"] = stats["p50"]
        summary["response_p99_ms"] = stats["p99"]
        summary["response_max_ms"] = stats["max"]
    if trace_out is not None:
        path = Path(trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        span_lines = 0
        with path.open("w") as stream:
            for conn in connections:
                for span in conn.spans or []:
                    stream.write(json.dumps(span, sort_keys=True) + "\n")
                    span_lines += 1
        summary["span_lines"] = span_lines
        summary["trace_out"] = str(path)
    return summary
