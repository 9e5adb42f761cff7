"""Server variant profiles: Minecraft (vanilla), Forge, PaperMC (§5.1.1).

Each profile encodes the engineering differences the paper documents:

* **vanilla** — the Mojang reference server; the cost baseline.
* **forge** — vanilla plus mod-loader indirection: every operation pays an
  event-bus/hook overhead, entities slightly more (capability lookups).
* **papermc** — the performance fork (Appendix A): rewritten entity
  handler, TNT-explosion optimizations, redstone improvements, async chat
  on a dedicated thread, item-stack merging, more work moved off the main
  thread (higher parallel fraction) at the price of more threads competing
  for CPU (higher background load, which burns t3 burst credits faster).

Costs are simulated microseconds per counted operation.  They were
calibrated so the workload→tick-duration shapes match the paper's figures,
not to match any absolute JVM timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from repro.mlg.workreport import OP_TABLE, Op

__all__ = [
    "VariantProfile",
    "VANILLA",
    "FORGE",
    "PAPERMC",
    "VARIANTS",
    "get_variant",
]


def _scaled(multipliers: dict[str, float], overall: float = 1.0) -> dict[str, float]:
    """Derive a cost table from the op table's vanilla base costs with
    per-op multipliers."""
    return {
        op: base * multipliers.get(op, 1.0) * overall
        for op, base, _ in OP_TABLE
    }


@dataclass(frozen=True)
class VariantProfile:
    """Performance personality of one MLG server implementation."""

    name: str
    display_name: str
    cost_table: MappingProxyType
    #: Amdahl parallelizable fraction of tick work.
    parallel_fraction: float
    #: Chat handled on a dedicated async thread (PaperMC)?
    async_chat: bool
    #: Merge co-located item entities into stacks (PaperMC)?
    merge_items: bool
    #: Entity movement packets sent every N ticks (PaperMC batches).
    entity_broadcast_interval: int
    #: OS threads the process runs (reported by the system collector).
    thread_count: int
    #: Extra CPU fraction consumed by background threads — burns burstable
    #: cloud credits even when the tick thread is idle.
    background_cpu_fraction: float
    #: Relative allocation/GC pressure per live entity and rule update
    #: (PaperMC's "limited per-thread cache duplication" allocates less).
    gc_factor: float


VANILLA = VariantProfile(
    name="vanilla",
    display_name="Minecraft",
    cost_table=MappingProxyType(_scaled({})),
    parallel_fraction=0.18,
    async_chat=False,
    merge_items=False,
    entity_broadcast_interval=1,
    thread_count=26,
    background_cpu_fraction=0.05,
    gc_factor=1.0,
)

FORGE = VariantProfile(
    name="forge",
    display_name="Forge",
    cost_table=MappingProxyType(
        _scaled(
            {
                Op.ENTITY_UPDATE: 1.22,
                Op.ITEM_UPDATE: 1.18,
                Op.TNT_UPDATE: 1.2,
                Op.TICK_FIXED: 1.3,
            },
            overall=1.06,
        )
    ),
    parallel_fraction=0.16,
    async_chat=False,
    merge_items=False,
    entity_broadcast_interval=1,
    thread_count=31,
    background_cpu_fraction=0.07,
    gc_factor=1.15,
)

PAPERMC = VariantProfile(
    name="papermc",
    display_name="PaperMC",
    cost_table=MappingProxyType(
        _scaled(
            {
                Op.ENTITY_UPDATE: 0.42,
                Op.ITEM_UPDATE: 0.45,
                Op.TNT_UPDATE: 0.4,
                Op.COLLISION_PAIR: 0.35,
                Op.EXPLOSION_RAY: 0.16,
                Op.REDSTONE: 0.55,
                Op.LIGHTING: 0.65,
                Op.PATHFIND_NODE: 0.6,
                Op.SPAWN_ATTEMPT: 0.8,
                Op.SPAWN_SCAN: 0.55,
                Op.CHUNK_GEN: 0.8,
                # Paper's async chunk system moves most chunk IO off the
                # main thread; only the hand-off cost hits the tick.
                Op.CHUNK_LOAD: 0.55,
                Op.CHUNK_SAVE: 0.5,
            }
        )
    ),
    parallel_fraction=0.42,
    async_chat=True,
    merge_items=True,
    entity_broadcast_interval=2,
    thread_count=43,
    background_cpu_fraction=0.32,
    gc_factor=0.35,
)

VARIANTS: dict[str, VariantProfile] = {
    "vanilla": VANILLA,
    "minecraft": VANILLA,
    "forge": FORGE,
    "papermc": PAPERMC,
    "paper": PAPERMC,
}


def get_variant(name: str) -> VariantProfile:
    """Resolve a variant by (case-insensitive) name or alias."""
    try:
        return VARIANTS[name.lower()]
    except KeyError:
        known = sorted(set(VARIANTS))
        raise ValueError(
            f"unknown MLG variant {name!r}; known: {', '.join(known)}"
        ) from None
