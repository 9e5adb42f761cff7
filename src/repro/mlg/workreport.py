"""Per-tick work accounting.

Every engine in the game loop records *what it did* (counts of fine-grained
operations) into a :class:`WorkReport`.  A variant's cost model then converts
counts into simulated CPU microseconds, and the machine model converts CPU
time into wall (simulated) time.  The fine categories also aggregate into the
paper's Figure 11 buckets (Block Add/Remove, Block Update, Entities, Other).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

__all__ = [
    "FIGURE11_BUCKETS",
    "OP_TABLE",
    "Op",
    "WorkReport",
    "bucket_of",
]


class Op:
    """Fine-grained operation categories counted by the engines."""

    TICK_FIXED = "tick_fixed"
    BLOCK_ADD_REMOVE = "block_add_remove"
    BLOCK_UPDATE = "block_update"
    LIGHTING = "lighting"
    FLUID = "fluid"
    GROWTH = "growth"
    REDSTONE = "redstone"
    ENTITY_UPDATE = "entity_update"
    ITEM_UPDATE = "item_update"
    TNT_UPDATE = "tnt_update"
    COLLISION_PAIR = "collision_pair"
    EXPLOSION_RAY = "explosion_ray"
    PATHFIND_NODE = "pathfind_node"
    SPAWN_ATTEMPT = "spawn_attempt"
    SPAWN_SCAN = "spawn_scan"
    CHUNK_GEN = "chunk_gen"
    CHUNK_LOAD = "chunk_load"
    CHUNK_SAVE = "chunk_save"
    CHUNK_VIEW = "chunk_view"
    CHUNK_TICK = "chunk_tick"
    PLAYER_ACTION = "player_action"
    CHAT = "chat"
    PACKET = "packet"
    BYTES_OUT = "bytes_out"


#: Figure 11's tick-distribution buckets (waiting buckets are added by the
#: game loop from measured wait time, not from work counts).
FIGURE11_BUCKETS = (
    "Block Add/Remove",
    "Block Update",
    "Fluids",
    "Entities",
    "Autosave",
    "Chunk Load",
    "Other",
)


#: The op table: one ``(op, vanilla cost per counted operation in
#: simulated µs, Figure 11 bucket)`` row per ``Op`` attribute, in
#: declaration order (the order of every variant's cost table; the
#: variants scale the cost).  A row cannot leave its price or its bucket
#: out, so an op that lands in "Other" does so because its row says so
#: (Fig. 11 lumps fixed tick overhead, chunk ticking, player actions,
#: chat and networking into its catch-all bucket), never by fallback.
#: ``tests/mlg/test_op_registry.py`` checks rows against attributes and
#: against every ``report.add`` site under ``src/``.
OP_TABLE = (
    (Op.TICK_FIXED, 350.0, "Other"),
    (Op.BLOCK_ADD_REMOVE, 2.2, "Block Add/Remove"),
    (Op.BLOCK_UPDATE, 1.0, "Block Update"),
    (Op.LIGHTING, 0.5, "Block Update"),
    # A fluid cell update is an order pricier than a generic block
    # update: the engine re-reads the full neighborhood and runs the
    # slope/support search before deciding where to spread.  It gets its
    # own bucket (§2.2.2's "Fluids" terrain-simulation workload) so
    # water-dominated scenarios are attributable in the tick-time
    # distribution.
    (Op.FLUID, 14.0, "Fluids"),
    (Op.GROWTH, 0.7, "Block Update"),
    (Op.REDSTONE, 1.15, "Block Update"),
    (Op.ENTITY_UPDATE, 80.0, "Entities"),
    (Op.ITEM_UPDATE, 11.0, "Entities"),
    (Op.TNT_UPDATE, 12.0, "Entities"),
    (Op.COLLISION_PAIR, 2.0, "Entities"),
    (Op.EXPLOSION_RAY, 0.7, "Entities"),
    (Op.PATHFIND_NODE, 1.4, "Entities"),
    (Op.SPAWN_ATTEMPT, 3.0, "Entities"),
    # The per-chunk mob-spawning eligibility scan is entity work (MF4).
    (Op.SPAWN_SCAN, 55.0, "Entities"),
    # Chunk IO gets its own buckets so the persistence workloads are
    # attributable in the tick-time distribution: "Autosave" is the
    # periodic dirty-chunk write-back, "Chunk Load" covers bringing a
    # chunk into play — generating it, reading it back from a region
    # file, or re-attaching an already-resident chunk to a player view.
    (Op.CHUNK_GEN, 950.0, "Chunk Load"),
    # Reading a chunk back from a region file: seek + inflate (~66 KB
    # raw per chunk) + deserialize + relight.  An order cheaper than
    # generating it, an order pricier than serving it from memory.
    (Op.CHUNK_LOAD, 260.0, "Chunk Load"),
    # Writing one dirty chunk during an autosave: deflate + region
    # read-modify-write, amortized across the chunks of a save batch.
    (Op.CHUNK_SAVE, 210.0, "Autosave"),
    # Attaching an already-resident chunk to a player view: no disk and
    # no generation, but the chunk-data packet is serialized and
    # compressed per send — the same 140 µs the pre-persistence model
    # charged this path (as CHUNK_LOAD), keeping fixed-seed runs without
    # disk IO bit-identical with the seed simulation.
    (Op.CHUNK_VIEW, 140.0, "Chunk Load"),
    (Op.CHUNK_TICK, 30.0, "Other"),
    (Op.PLAYER_ACTION, 5.0, "Other"),
    (Op.CHAT, 25.0, "Other"),
    (Op.PACKET, 0.45, "Other"),
    (Op.BYTES_OUT, 0.0012, "Other"),
)

_BUCKET = {op: bucket for op, _, bucket in OP_TABLE}


def bucket_of(op: str) -> str:
    """Map a fine operation category to its Figure 11 bucket.

    Every op has a row in :data:`OP_TABLE`; the fallback only covers
    ad-hoc strings from external callers.
    """
    return _BUCKET.get(op, "Other")


@dataclass
class WorkReport:
    """Mutable per-tick tally of operation counts."""

    counts: dict[str, float] = field(default_factory=dict)

    def add(self, op: str, n: float = 1.0) -> None:
        """Record ``n`` occurrences of operation ``op``."""
        if n < 0:
            raise ValueError(f"cannot record negative work ({op}: {n!r})")
        if n:
            self.counts[op] = self.counts.get(op, 0.0) + n

    def get(self, op: str) -> float:
        """Count recorded for ``op`` (0.0 when absent)."""
        return self.counts.get(op, 0.0)

    def merge(self, other: "WorkReport") -> None:
        """Fold another report's counts into this one."""
        for op, n in other.counts.items():
            self.counts[op] = self.counts.get(op, 0.0) + n

    def cost_us(self, cost_table: Mapping[str, float]) -> dict[str, float]:
        """Convert counts to CPU microseconds using ``cost_table``.

        Operations missing from the table cost nothing; this lets variants
        zero out work they optimize away entirely.
        """
        return {
            op: n * cost_table.get(op, 0.0)
            for op, n in self.counts.items()
            if cost_table.get(op, 0.0) > 0.0
        }

    def total_cost_us(self, cost_table: Mapping[str, float]) -> float:
        """Total CPU microseconds implied by this report."""
        return sum(self.cost_us(cost_table).values())

    def bucketed_cost_us(
        self, cost_table: Mapping[str, float]
    ) -> dict[str, float]:
        """Cost aggregated into Figure 11 buckets."""
        buckets: dict[str, float] = {}
        for op, us in self.cost_us(cost_table).items():
            bucket = bucket_of(op)
            buckets[bucket] = buckets.get(bucket, 0.0) + us
        return buckets

    def copy(self) -> "WorkReport":
        return WorkReport(dict(self.counts))
