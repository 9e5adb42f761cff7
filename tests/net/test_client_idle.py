"""The client's one timer: when a connection gives up, and when not.

A ``_Connection`` reads without a per-read deadline; one re-armed timer
closes its socket once the server has sent nothing for the (here
shortened) idle timeout or the fleet's run time is up.  A hand-written
loopback server plays the three servers that matter: one that welcomes
the client and goes silent, one that keeps sending ``TICK`` frames for
several timeouts, and one that outlives the client's run time.

Lower bounds on wall time are exact (the timer re-arms if it comes due
early); upper bounds only tell "gave up" from "hung until the real
30 s timeout", so a slow host cannot fail them.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.mlg import wirecodec as wc
from repro.net import client as wire_client

IDLE_S = 0.3
TICK_EVERY_S = 0.05
HUNG_S = 15.0


class _ScriptedServer:
    """Welcomes a client, sends ``ticks`` ``TICK`` frames
    ``TICK_EVERY_S`` apart, then closes the socket or — ``then_close``
    off — holds it open without another word.  Records what the client
    sent until the client hangs up."""

    def __init__(self, ticks: int, then_close: bool) -> None:
        self.ticks = ticks
        self.then_close = then_close
        self.received: list = []
        self.client_hung_up = asyncio.Event()

    async def _send(self, writer) -> None:
        writer.write(wc.encode_welcome(1, 8.0, 65.0, 8.0, 0))
        for index in range(self.ticks):
            await asyncio.sleep(TICK_EVERY_S)
            writer.write(wc.encode_tick(50_000 * (index + 1), index))
        if self.then_close:
            writer.close()

    async def handle(self, reader, writer) -> None:
        decoder = wc.FrameDecoder()
        self.received += decoder.feed(await reader.read(65536))
        sender = asyncio.create_task(self._send(writer))
        try:
            while chunk := await reader.read(65536):
                self.received += decoder.feed(chunk)
        finally:
            sender.cancel()
            writer.close()
            self.client_hung_up.set()


def _run(scripted: _ScriptedServer, stop_after_s: float | None = None):
    """One ``_Connection`` against ``scripted``; returns it with the
    wall seconds its ``run`` took."""
    connection = wire_client._Connection(
        index=0,
        host="127.0.0.1",
        port=0,
        behavior_name="bounded-random",
        rng=np.random.default_rng(3),
        probe_interval_s=1.0,
        latency_us=0,
        view_distance=0,
    )

    async def scenario() -> float:
        server = await asyncio.start_server(scripted.handle, "127.0.0.1", 0)
        connection.port = server.sockets[0].getsockname()[1]
        start = time.monotonic()
        stop_at = None if stop_after_s is None else start + stop_after_s
        try:
            await connection.run(stop_at)
            took = time.monotonic() - start
            await scripted.client_hung_up.wait()
        finally:
            server.close()
            await server.wait_closed()
        return took

    return connection, asyncio.run(scenario())


@pytest.fixture
def wait_for_calls(monkeypatch):
    """Shortens the idle timeout and counts ``asyncio.wait_for`` calls."""
    monkeypatch.setattr(wire_client, "_IDLE_TIMEOUT_S", IDLE_S)
    calls = []
    inner = asyncio.wait_for

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(asyncio, "wait_for", counting)
    return calls


def test_a_server_gone_silent_is_abandoned_after_the_timeout(wait_for_calls):
    scripted = _ScriptedServer(ticks=3, then_close=False)
    connection, took = _run(scripted)
    assert connection.connected and connection.ticks_seen == 3
    # Silence is counted from the last byte, not from the connect.
    assert 3 * TICK_EVERY_S + IDLE_S <= took < HUNG_S
    # A timeout is not a goodbye: the server just sees the socket close.
    assert not any(isinstance(m, wc.WireBye) for m in scripted.received)
    assert wait_for_calls == []


def test_a_server_that_never_welcomes_is_abandoned_too(wait_for_calls):
    scripted = _ScriptedServer(ticks=0, then_close=False)

    async def mute(writer) -> None:
        pass

    scripted._send = mute
    connection, took = _run(scripted)
    assert not connection.connected
    assert IDLE_S <= took < HUNG_S


def test_a_server_still_sending_ticks_is_not(wait_for_calls):
    ticks = int(4 * IDLE_S / TICK_EVERY_S)  # four timeouts' worth
    scripted = _ScriptedServer(ticks=ticks, then_close=True)
    connection, took = _run(scripted)
    assert connection.ticks_seen == ticks
    assert took >= ticks * TICK_EVERY_S
    # One timer a connection, re-armed when it comes due — the reads
    # made no task and no timer of their own.
    assert wait_for_calls == []


def test_run_time_up_says_goodbye_under_traffic_and_under_silence(
    wait_for_calls,
):
    for ticks in (200, 1):  # still ticking at the stop / long silent by then
        scripted = _ScriptedServer(ticks=ticks, then_close=False)
        connection, took = _run(scripted, stop_after_s=0.2)
        assert 0.2 <= took < HUNG_S
        assert wc.WireBye("client done") in scripted.received
        assert not connection.bot.session.connected
