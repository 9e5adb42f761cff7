"""An emulated player — the Yardstick-style protocol client (Fig. 5, #5).

Each bot connects to the server, walks according to its behaviour, and
periodically sends a chat *probe*: a message echoed to every player
(including the sender).  Response time is the interval between sending the
probe and receiving its own echo — exactly the paper's instrument (§3.5.1):
uplink + input-queue wait + tick processing + outbound flush + downlink.

Bots speak only the :class:`~repro.mlg.transport.ServerSession` surface
(MSL007, enforced by ``tests/lint/test_determinism_gate.py``): the same
behaviour code drives an in-process server and a TCP connection in
:mod:`repro.net`.
"""

from __future__ import annotations

import numpy as np

from repro.emulation.behavior import Behavior, Idle
from repro.mlg.protocol import ActionKind, PacketCategory, PlayerAction
from repro.mlg.transport import ServerSession, as_transport
from repro.simtime import s_to_us

__all__ = ["EmulatedPlayer"]

#: Default seconds between chat probes.
PROBE_INTERVAL_S = 1.0


class EmulatedPlayer:
    """One bot driving one client connection.

    ``target`` may be a :class:`ServerSession`, a transport, or a bare
    ``MLGServer`` (wrapped in an in-process session for callers that
    predate the transport boundary).
    """

    def __init__(
        self,
        name: str,
        target,
        rng: np.random.Generator,
        behavior: Behavior | None = None,
        spawn_x: float = 8.0,
        spawn_z: float = 8.0,
        latency_up_us: int = 1000,
        latency_down_us: int = 1000,
        probe_interval_s: float = PROBE_INTERVAL_S,
        view_distance: int | None = None,
    ) -> None:
        self.name = name
        self.session: ServerSession = (
            target
            if isinstance(target, ServerSession)
            else as_transport(target).session()
        )
        self.rng = rng
        self.behavior = behavior if behavior is not None else Idle()
        self.probe_interval_us = s_to_us(probe_interval_s)
        info = self.session.connect(
            name, spawn_x, spawn_z, latency_up_us, latency_down_us,
            view_distance=view_distance,
        )
        self.client_id = info.client_id
        self.x = info.x
        self.z = info.z
        self.y = info.y
        self._next_probe_us = self.session.now_us()
        self._next_probe_id = 1
        #: probe_id -> send timestamp (µs).  Completed probes' response
        #: times stream through the session's measurement plane.
        self._pending_probes: dict[int, int] = {}
        # Real clients chat during the join sequence; the first probe goes
        # out immediately, so it samples the connect-time chunk-loading
        # spike — the source of the paper's §5.2 outliers ("directly after
        # a player connects").
        self._maybe_probe(self.session.now_us())

    # -- per-tick driving -----------------------------------------------------------

    def step(self, now_us: int) -> None:
        """Advance the bot one tick: consume echoes, move, maybe probe."""
        if not self.session.connected:
            return
        self._consume_deliveries()
        self._maybe_move(now_us)
        self._maybe_probe(now_us)

    @property
    def connected(self) -> bool:
        return self.session.connected

    def _consume_deliveries(self) -> None:
        for delivery in self.session.poll_deliveries():
            if delivery.category != PacketCategory.CHAT:
                continue
            sender_id, probe_id = delivery.payload
            if sender_id != self.client_id:
                continue
            sent_at = self._pending_probes.pop(probe_id, None)
            if sent_at is not None:
                response_ms = (delivery.delivered_at_us - sent_at) / 1000.0
                self.session.record_response_ms(response_ms)

    def _maybe_move(self, now_us: int) -> None:
        target = self.behavior.next_move(self.x, self.z, self.rng)
        if target is None:
            return
        tx, tz = target
        ground = self.session.ground_height(int(tx), int(tz))
        action = PlayerAction(
            ActionKind.MOVE, self.client_id, (tx, float(max(ground, 1)), tz)
        )
        # Client-side speculation: the bot applies its own move locally.
        self.x, self.z = tx, tz
        self.session.submit(action, now_us)

    def _maybe_probe(self, now_us: int) -> None:
        if now_us < self._next_probe_us:
            return
        probe_id = self._next_probe_id
        self._next_probe_id += 1
        # Sub-tick send offset: probes land uniformly inside tick windows.
        sent_at = now_us + int(self.rng.uniform(0, 45_000))
        action = PlayerAction(
            ActionKind.CHAT, self.client_id, (probe_id, 32)
        )
        self.session.submit(action, sent_at)
        self._pending_probes[probe_id] = sent_at
        self._next_probe_us = now_us + self.probe_interval_us + int(
            self.rng.uniform(-0.1, 0.1) * self.probe_interval_us
        )
