"""Chat subsystem — the response-time instrument (§3.5.1).

Meterstick measures response time by having a player send a chat message to
all players (including itself) and timing the echo.  In vanilla/Forge the
echo rides the game tick: the message waits in the input queue, is processed
during the next tick, and the reply flushes at tick end — so chat latency
exposes tick latency.  PaperMC handles chat on a dedicated asynchronous
thread, decoupling it from the tick (which is why the paper omits PaperMC
from Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mlg.netqueue import NetworkQueues
from repro.mlg.protocol import PacketCategory
from repro.mlg.workreport import Op, WorkReport

__all__ = ["ChatSystem", "PendingChat"]

#: Cost of the async chat path, in simulated microseconds (thread hop +
#: broadcast, off the tick thread).
ASYNC_CHAT_LATENCY_US = 900


@dataclass(frozen=True)
class PendingChat:
    """A chat message waiting for tick processing (sync mode)."""

    client_id: int
    probe_id: int
    arrival_us: int


class ChatSystem:
    """Broadcasts chat; sync (in-tick) or async (dedicated thread)."""

    def __init__(self, net: NetworkQueues, async_mode: bool) -> None:
        self.net = net
        self.async_mode = async_mode
        self._pending: list[PendingChat] = []
        self.messages_total = 0

    def submit(
        self,
        client_id: int,
        probe_id: int,
        arrival_us: int,
        report: WorkReport,
    ) -> None:
        """A chat action arrived at the server.

        Async mode answers immediately (plus a small thread-hop delay);
        sync mode parks the message for the next tick.
        """
        if self.async_mode:
            self._broadcast(
                client_id, probe_id, arrival_us + ASYNC_CHAT_LATENCY_US, report
            )
        else:
            self._pending.append(PendingChat(client_id, probe_id, arrival_us))

    def process_tick(self, report: WorkReport) -> int:
        """Sync mode: account in-tick chat work; returns processed count.

        The actual echo flushes with the tick's outbound queue — the game
        loop calls :meth:`flush_processed` with the flush timestamp.
        """
        if self.async_mode:
            return 0
        n = len(self._pending)
        if n:
            report.add(Op.CHAT, n)
        return n

    def flush_processed(self, flush_us: int, report: WorkReport) -> int:
        """Sync mode: broadcast all processed messages at tick flush."""
        if self.async_mode:
            return 0
        flushed = 0
        for message in self._pending:
            self._broadcast(
                message.client_id, message.probe_id, flush_us, report
            )
            flushed += 1
        self._pending.clear()
        return flushed

    def _broadcast(
        self, sender_id: int, probe_id: int, flush_us: int, report: WorkReport
    ) -> None:
        """Echo a chat message to every connected client (incl. sender)."""
        self.messages_total += 1
        report.add(Op.CHAT, 1)
        for endpoint in self.net.connected_clients():
            self.net.deliver(
                endpoint.client_id,
                PacketCategory.CHAT,
                (sender_id, probe_id),
                flush_us,
                report,
            )
