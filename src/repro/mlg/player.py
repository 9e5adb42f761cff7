"""Player handler — component 4 of the operational model (Fig. 4).

Processes the actions drained from the input queue once per tick: movement
(validated against terrain collision), building/digging (terrain writes that
trigger relighting and fluid updates), and chat (delegated to the chat
subsystem).  Also owns view management: connecting or moving across a chunk
border loads — and lazily generates — the chunks in view distance, the
source of the paper's connect-time response spikes (§5.2: "these outliers
occur directly after a player connects").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.mlg.chat import ChatSystem
from repro.mlg.constants import DEFAULT_VIEW_DISTANCE
from repro.mlg.fluids import FluidEngine
from repro.mlg.lighting import LightEngine
from repro.mlg.netqueue import NetworkQueues
from repro.mlg.protocol import ActionKind, PacketCategory, PlayerAction
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World

__all__ = ["PlayerConnection", "PlayerHandler"]

#: What bringing a chunk into a view is charged as, by where
#: ``World.ensure_chunks`` found it: generated (lit on top), streamed back
#: in from a region file (relit by the lifecycle loader; the op's cost
#: covers the relight), or already resident (view attachment only).
_VIEW_OPS = {
    "generated": Op.CHUNK_GEN,
    "loaded": Op.CHUNK_LOAD,
    "resident": Op.CHUNK_VIEW,
}


@dataclass
class PlayerConnection:
    """Server-side state of one connected player."""

    client_id: int
    name: str
    x: float
    y: float
    z: float
    view_distance: int = DEFAULT_VIEW_DISTANCE
    loaded_chunks: set[tuple[int, int]] = field(default_factory=set)
    moved_this_tick: bool = False
    actions_processed: int = 0

    @property
    def chunk_pos(self) -> tuple[int, int]:
        return int(self.x) >> 4, int(self.z) >> 4


class PlayerHandler:
    """Applies player actions to the game state."""

    def __init__(
        self,
        world: World,
        lights: LightEngine,
        fluids: FluidEngine,
        net: NetworkQueues,
        chat: ChatSystem,
    ) -> None:
        self.world = world
        self.lights = lights
        self.fluids = fluids
        self.net = net
        self.chat = chat
        self.players: dict[int, PlayerConnection] = {}

    # -- connection lifecycle -----------------------------------------------------

    def connect(
        self,
        client_id: int,
        name: str,
        x: float,
        z: float,
        report: WorkReport,
        view_distance: int = DEFAULT_VIEW_DISTANCE,
    ) -> PlayerConnection:
        """Join a player at ground level of ``(x, z)`` and load their view.

        Loading generates missing chunks and ships chunk data — the big
        burst of work behind connect-time latency spikes.
        """
        self.world.ensure_chunk(int(x) >> 4, int(z) >> 4)
        ground = self.world.column_height(int(x), int(z))
        conn = PlayerConnection(
            client_id, name, x, float(max(ground, 1)), z, view_distance
        )
        self.players[client_id] = conn
        self._load_view(conn, report)
        # Announce the new player to everyone already connected.
        self.net.broadcast_counted(PacketCategory.PLAYER_INFO, 1, report)
        return conn

    def disconnect(self, client_id: int) -> None:
        self.players.pop(client_id, None)

    def positions(self) -> list[tuple[float, float, float]]:
        return [(p.x, p.y, p.z) for p in self.players.values()]

    def view_anchors(self) -> list[tuple[tuple[int, int], int]]:
        """Each player's ``(chunk_pos, view_distance)`` — what the chunk
        lifecycle must keep resident."""
        return [(p.chunk_pos, p.view_distance) for p in self.players.values()]

    def _load_view(self, conn: PlayerConnection, report: WorkReport) -> int:
        """Load/generate every chunk within view distance as one batch, then
        charge the work once per source; returns the new count."""
        ccx, ccz = conn.chunk_pos
        view = conn.view_distance
        # A chunk this player already has is skipped only while it is still
        # resident: one the lifecycle evicted since must stream back in (and
        # be re-sent) on re-entry.  Without eviction nothing is unloaded.
        wanted = [
            (cx, cz)
            for cx in range(ccx - view, ccx + view + 1)
            for cz in range(ccz - view, ccz + view + 1)
            if (cx, cz) not in conn.loaded_chunks
            or not self.world.has_chunk(cx, cz)
        ]
        ensured = self.world.ensure_chunks(wanted)
        lit = self.lights.light_chunks(
            [chunk for chunk, source in ensured if source == "generated"]
        )
        # Ops enter the report in the order a chunk-by-chunk walk would
        # first meet them (the cost total is summed in that order): the
        # first chunk's source, the view's packets, the other sources.
        sources = Counter(source for _, source in ensured)
        for i, (source, n) in enumerate(sources.items()):
            report.add(_VIEW_OPS[source], n)
            if source == "generated":
                report.add(Op.LIGHTING, sum(lit))
            if i == 0:
                self.net.send_counted(
                    conn.client_id, PacketCategory.CHUNK_DATA, len(ensured),
                    report,
                )
        conn.loaded_chunks.update(wanted)
        return len(wanted)

    # -- action processing ----------------------------------------------------------

    def process_actions(
        self, actions: list[PlayerAction], report: WorkReport
    ) -> int:
        """Apply this tick's drained actions; returns the processed count."""
        for conn in self.players.values():
            conn.moved_this_tick = False
        processed = 0
        for action in actions:
            conn = self.players.get(action.client_id)
            if conn is None:
                continue
            report.add(Op.PLAYER_ACTION)
            conn.actions_processed += 1
            if action.kind == ActionKind.MOVE:
                self._apply_move(conn, action, report)
            elif action.kind == ActionKind.BUILD:
                self._apply_build(action, report)
            elif action.kind == ActionKind.DIG:
                self._apply_dig(action, report)
            elif action.kind == ActionKind.CHAT:
                probe_id, _ = action.payload
                self.chat.submit(action.client_id, probe_id, 0, report)
            processed += 1
        return processed

    def _apply_move(
        self, conn: PlayerConnection, action: PlayerAction, report: WorkReport
    ) -> None:
        """Validate and apply a movement: the body must fit at the target."""
        tx, ty, tz = action.payload
        bx, by, bz = int(tx), int(ty), int(tz)
        # Collision reads against the terrain in the player's vicinity.
        if self.world.is_solid_at(bx, by, bz) or self.world.is_solid_at(
            bx, by + 1, bz
        ):
            return  # rejected: target obstructed
        old_chunk = conn.chunk_pos
        conn.x, conn.y, conn.z = float(tx), float(ty), float(tz)
        conn.moved_this_tick = True
        if conn.chunk_pos != old_chunk:
            self._load_view(conn, report)

    def _apply_build(self, action: PlayerAction, report: WorkReport) -> None:
        x, y, z, block_id = action.payload
        if not self.world.is_solid_at(x, y, z):  # not into a solid block
            self._write(x, y, z, block_id, report)

    def _apply_dig(self, action: PlayerAction, report: WorkReport) -> None:
        x, y, z = action.payload
        if self.world.get_block(x, y, z) != 0:
            self._write(x, y, z, 0, report)

    def _write(self, x: int, y: int, z: int, block_id: int, report) -> None:
        if self.world.set_block(x, y, z, block_id) is not None:
            report.add(Op.BLOCK_ADD_REMOVE)
            self.lights.relight_around(x, y, z, report)
            self.fluids.schedule_neighbors(x, y, z)

    # -- per-tick broadcasts -----------------------------------------------------------

    def broadcast_movement(self, report: WorkReport) -> int:
        """Send avatar movement of each moved player to every other player."""
        movers = sum(1 for p in self.players.values() if p.moved_this_tick)
        if movers:
            self.net.broadcast_counted(PacketCategory.ENTITY_MOVE, movers, report)
        return movers * max(0, len(self.players) - 1)
