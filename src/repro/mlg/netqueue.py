"""Networking queues — component 1 of the operational model (Fig. 4).

Inbound: client actions are buffered with their arrival time and drained at
the start of the tick that follows them.  Outbound: per-client packet
buffers flushed at tick end; only packets a client-side consumer cares
about (chat echoes, keepalives) are materialized as deliveries with a
timestamp — bulk state updates are counted into :class:`PacketStats`.

Keepalive bookkeeping lives here too: clients that go without a keepalive
longer than ``CLIENT_TIMEOUT_US`` disconnect, which is how the Lag workload
kills servers on AWS (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mlg.constants import CLIENT_TIMEOUT_US, KEEPALIVE_INTERVAL_US
from repro.mlg.protocol import PacketCategory, PacketStats, PlayerAction
from repro.mlg.workreport import Op, WorkReport

__all__ = ["Delivery", "NetworkQueues", "ClientEndpoint"]


@dataclass(frozen=True)
class Delivery:
    """A materialized server→client message with its delivery time."""

    client_id: int
    category: str
    payload: tuple
    delivered_at_us: int


@dataclass
class ClientEndpoint:
    """Per-client networking state held by the server.

    The delivery buffer is private: consumers (the in-process session and
    the TCP writer alike) take ownership of buffered deliveries through
    :meth:`drain_deliveries` instead of indexing into server state.
    """

    client_id: int
    latency_up_us: int
    latency_down_us: int
    connected_at_us: int
    last_keepalive_flush_us: int
    next_keepalive_due_us: int
    disconnected: bool = False
    disconnect_reason: str | None = None
    _deliveries: list[Delivery] = field(default_factory=list)

    def push_delivery(self, delivery: Delivery) -> None:
        self._deliveries.append(delivery)

    def drain_deliveries(self) -> list[Delivery]:
        """Hand over (and clear) every delivery buffered since last drain."""
        drained = self._deliveries
        self._deliveries = []
        return drained


class NetworkQueues:
    """In/out buffering between clients and the game loop."""

    def __init__(self) -> None:
        self._inbound: list[tuple[int, PlayerAction]] = []
        self._clients: dict[int, ClientEndpoint] = {}
        self.stats = PacketStats()
        self.bytes_in_total = 0

    # -- clients -------------------------------------------------------------------

    def register_client(
        self,
        client_id: int,
        now_us: int,
        latency_up_us: int,
        latency_down_us: int,
    ) -> ClientEndpoint:
        endpoint = ClientEndpoint(
            client_id=client_id,
            latency_up_us=latency_up_us,
            latency_down_us=latency_down_us,
            connected_at_us=now_us,
            last_keepalive_flush_us=now_us,
            next_keepalive_due_us=now_us + KEEPALIVE_INTERVAL_US,
        )
        self._clients[client_id] = endpoint
        return endpoint

    def client(self, client_id: int) -> ClientEndpoint | None:
        return self._clients.get(client_id)

    def connected_clients(self) -> list[ClientEndpoint]:
        return [c for c in self._clients.values() if not c.disconnected]

    @property
    def connected_count(self) -> int:
        return sum(1 for c in self._clients.values() if not c.disconnected)

    def disconnect(self, client_id: int, reason: str) -> None:
        endpoint = self._clients.get(client_id)
        if endpoint is not None and not endpoint.disconnected:
            endpoint.disconnected = True
            endpoint.disconnect_reason = reason

    # -- inbound -------------------------------------------------------------------

    def submit_action(
        self, action: PlayerAction, sent_at_us: int
    ) -> int:
        """Client sends an action; returns its server arrival time."""
        endpoint = self._clients.get(action.client_id)
        if endpoint is None or endpoint.disconnected:
            return -1
        arrival = sent_at_us + endpoint.latency_up_us
        self._inbound.append((arrival, action))
        self.bytes_in_total += action.size_bytes
        return arrival

    def drain_inbound(self, tick_start_us: int) -> list[PlayerAction]:
        """Actions that arrived before this tick started, in arrival order."""
        due = [
            (arrival, action)
            for arrival, action in self._inbound
            if arrival <= tick_start_us
        ]
        self._inbound = [
            entry for entry in self._inbound if entry[0] > tick_start_us
        ]
        due.sort(key=lambda entry: entry[0])
        return [action for _, action in due]

    # -- outbound -------------------------------------------------------------------

    def broadcast_counted(
        self, category: str, n_per_client: int, report: WorkReport
    ) -> None:
        """Count ``n_per_client`` packets of a category to every connected
        client: one tally of ``n_per_client × k`` for ``k`` clients, what
        ``k`` :meth:`send_counted` calls add up to (integer counts)."""
        k = self.connected_count
        if n_per_client <= 0 or not k:
            return
        n = n_per_client * k
        added = self.stats.record(category, n)
        report.add(Op.PACKET, n)
        report.add(Op.BYTES_OUT, added)

    def send_counted(
        self, client_id: int, category: str, n: int, report: WorkReport
    ) -> None:
        """Count ``n`` packets of a category to a single client."""
        endpoint = self._clients.get(client_id)
        if endpoint is None or endpoint.disconnected or n <= 0:
            return
        added = self.stats.record(category, n)
        report.add(Op.PACKET, n)
        report.add(Op.BYTES_OUT, added)

    def deliver(
        self,
        client_id: int,
        category: str,
        payload: tuple,
        flush_us: int,
        report: WorkReport,
    ) -> Delivery | None:
        """Materialize a delivery (chat echo etc.) to one client."""
        endpoint = self._clients.get(client_id)
        if endpoint is None or endpoint.disconnected:
            return None
        added = self.stats.record(category, 1)
        report.add(Op.PACKET, 1)
        report.add(Op.BYTES_OUT, added)
        delivery = Delivery(
            client_id, category, payload, flush_us + endpoint.latency_down_us
        )
        endpoint.push_delivery(delivery)
        return delivery

    # -- keepalives and timeouts ------------------------------------------------------

    def check_timeouts(self, now_us: int) -> list[int]:
        """Age out clients without sending anything (tick-start check).

        Clients decide to disconnect on their own wall clock; a server
        stuck in a monster tick discovers the departures when it next
        looks — here, at the start of the following tick.
        """
        timed_out: list[int] = []
        for endpoint in self._clients.values():
            if endpoint.disconnected:
                continue
            if now_us - endpoint.last_keepalive_flush_us >= CLIENT_TIMEOUT_US:
                endpoint.disconnected = True
                endpoint.disconnect_reason = "keepalive timeout"
                timed_out.append(endpoint.client_id)
        return timed_out

    def flush_keepalives(self, flush_us: int, report: WorkReport) -> list[int]:
        """Send due keepalives and detect timeouts; returns timed-out ids.

        Keepalives are flushed at tick boundaries (the networking thread
        writes, but the tick loop produces).  A client whose last keepalive
        flush is older than the timeout disconnects — during a very long
        tick nothing flushes, so all clients age out together.
        """
        timed_out: list[int] = []
        for endpoint in self._clients.values():
            if endpoint.disconnected:
                continue
            if flush_us - endpoint.last_keepalive_flush_us >= CLIENT_TIMEOUT_US:
                endpoint.disconnected = True
                endpoint.disconnect_reason = "keepalive timeout"
                timed_out.append(endpoint.client_id)
                continue
            if flush_us >= endpoint.next_keepalive_due_us:
                added = self.stats.record(PacketCategory.KEEPALIVE, 1)
                report.add(Op.PACKET, 1)
                report.add(Op.BYTES_OUT, added)
                endpoint.last_keepalive_flush_us = flush_us
                while endpoint.next_keepalive_due_us <= flush_us:
                    endpoint.next_keepalive_due_us += KEEPALIVE_INTERVAL_US
        return timed_out
