"""The session/transport boundary between emulated clients and servers.

Bots used to reach straight into server internals (``server.net``,
``server.world``, ``server.telemetry``) — workable in-process, impossible
over a socket.  This module narrows the whole bot↔server surface to a
:class:`ServerSession`: connect/disconnect, action submission, delivery
draining, a ground probe, and clock queries.  ``repro.emulation`` may
import *only* this module and :mod:`repro.mlg.protocol` (rule MSL007,
enforced by ``tests/lint/test_determinism_gate.py``), so every
behaviour that runs in-process also runs over the TCP transport in
:mod:`repro.net`.

:class:`InProcessTransport` is the direct-call implementation.  It is
bit-identical to the historical reach-in path: every method forwards to
the exact same server call the bots used to make, in the same order,
with no added clock reads or RNG draws (``tests/mlg/test_transport.py``
pins the parity against an inline pre-refactor harness).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mlg.netqueue import Delivery
from repro.mlg.protocol import PlayerAction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mlg.server import MLGServer

__all__ = [
    "Delivery",
    "InProcessSession",
    "InProcessTransport",
    "ServerSession",
    "SessionInfo",
    "as_transport",
]


class SessionInfo:
    """The welcome data a transport hands back on connect."""

    __slots__ = ("client_id", "x", "y", "z")

    def __init__(self, client_id: int, x: float, y: float, z: float) -> None:
        self.client_id = client_id
        self.x = x
        self.y = y
        self.z = z


class ServerSession:
    """One client's narrow view of a server, local or remote.

    The contract mirrors what a real protocol client can do: it may send
    actions, drain what the server delivered to *it*, ask the terrain
    height at a column (real clients know it from chunk data), and read
    the server clock (synced via welcome/tick frames on the wire).  It
    can never see other clients, queue internals, or telemetry state.
    """

    def connect(
        self,
        name: str,
        spawn_x: float,
        spawn_z: float,
        latency_up_us: int,
        latency_down_us: int,
        view_distance: int | None = None,
    ) -> SessionInfo:
        """Join the server; returns the spawn placement and client id."""
        raise NotImplementedError

    def disconnect(self, reason: str = "client quit") -> None:
        raise NotImplementedError

    @property
    def connected(self) -> bool:
        raise NotImplementedError

    def submit(self, action: PlayerAction, sent_at_us: int) -> None:
        """Send one action, stamped with the client's send time."""
        raise NotImplementedError

    def poll_deliveries(self) -> list[Delivery]:
        """Drain every delivery addressed to this session since last poll."""
        raise NotImplementedError

    def ground_height(self, x: int, z: int) -> int:
        """Terrain height at a column (the client-side chunk knowledge)."""
        raise NotImplementedError

    def now_us(self) -> int:
        """The session's best estimate of the server clock."""
        raise NotImplementedError

    def record_response_ms(self, response_ms: float) -> None:
        """Report one completed probe round-trip to the measurement plane."""
        raise NotImplementedError


class InProcessTransport:
    """Direct-call transport: sessions talk to an ``MLGServer`` object."""

    def __init__(self, server: "MLGServer") -> None:
        self._server = server

    def session(self) -> "InProcessSession":
        return InProcessSession(self._server)

    def now_us(self) -> int:
        return self._server.clock.now_us


class InProcessSession(ServerSession):
    """A :class:`ServerSession` bound to an in-process server.

    Parity contract: each method is a thin forward to the same server
    call the pre-refactor bots made directly — no extra clock reads, no
    buffering, no reordering — so ``transport=inproc`` runs are
    bit-identical to the historical direct-call path.
    """

    def __init__(self, server: "MLGServer") -> None:
        self._server = server
        self._client_id: int | None = None

    def connect(
        self,
        name: str,
        spawn_x: float,
        spawn_z: float,
        latency_up_us: int,
        latency_down_us: int,
        view_distance: int | None = None,
    ) -> SessionInfo:
        view_kwargs = (
            {} if view_distance is None else {"view_distance": view_distance}
        )
        conn = self._server.connect_client(
            name, spawn_x, spawn_z, latency_up_us, latency_down_us,
            **view_kwargs,
        )
        self._client_id = conn.client_id
        return SessionInfo(conn.client_id, conn.x, conn.y, conn.z)

    def disconnect(self, reason: str = "client quit") -> None:
        if self._client_id is not None:
            self._server.net.disconnect(self._client_id, reason)

    @property
    def connected(self) -> bool:
        if self._client_id is None:
            return False
        endpoint = self._server.net.client(self._client_id)
        return endpoint is not None and not endpoint.disconnected

    def submit(self, action: PlayerAction, sent_at_us: int) -> None:
        self._server.submit_action(action, sent_at_us)

    def poll_deliveries(self) -> list[Delivery]:
        if self._client_id is None:
            return []
        endpoint = self._server.net.client(self._client_id)
        if endpoint is None or endpoint.disconnected:
            return []
        return endpoint.drain_deliveries()

    def ground_height(self, x: int, z: int) -> int:
        return self._server.world.column_height(x, z)

    def now_us(self) -> int:
        return self._server.clock.now_us

    def record_response_ms(self, response_ms: float) -> None:
        self._server.telemetry.observe_response(response_ms)


def as_transport(server_or_transport) -> InProcessTransport:
    """Normalize a server object into a transport (duck-typed so callers
    that already hold a transport pass through unchanged)."""
    if hasattr(server_or_transport, "session"):
        return server_or_transport
    return InProcessTransport(server_or_transport)
