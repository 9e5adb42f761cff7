"""TNT and explosions — the paper's TNT workload substrate (§3.3.1).

Primed TNT is an entity with a fuse; on expiry it explodes, casting rays
(counted as work — vanilla casts 1352 rays per explosion), destroying
terrain in a blast sphere, priming any TNT blocks it uncovers (the chain
reaction), knocking back nearby entities, and occasionally dropping items.

PaperMC's TNT optimization (Appendix A / §5.3: "performance optimizations
specifically for handling TNT explosions") is modeled in the variant cost
table (cheaper rays/collisions) and by merging co-located TNT entities.
"""

from __future__ import annotations

import numpy as np

from repro.mlg.blocks import Block, spec
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import Entity, EntityKind
from repro.mlg.entity_manager import EntityManager
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World, cuboid_cells

__all__ = ["TNTSystem", "DEFAULT_FUSE_TICKS", "RAYS_PER_EXPLOSION"]

#: Vanilla fuse length, in game ticks (4 s).
DEFAULT_FUSE_TICKS = 80
#: Rays cast per explosion in the vanilla algorithm (16×16×16 minus interior).
RAYS_PER_EXPLOSION = 1352
#: Blast radius of a TNT explosion, in blocks.
BLAST_RADIUS = 3.2
#: Chance that a destroyed block drops an item entity.
DROP_CHANCE = 0.08
#: Cap on item drops per explosion (keeps chains from flooding items).
MAX_DROPS_PER_EXPLOSION = 4


class TNTSystem:
    """Manages primed TNT entities and executes explosions."""

    def __init__(
        self,
        world: World,
        entities: EntityManager,
        rng: np.random.Generator,
    ) -> None:
        self.world = world
        self.entities = entities
        self.rng = rng
        #: Cumulative explosion count (exposed to collectors).
        self.explosions_total = 0
        self.blocks_destroyed_total = 0

    # -- priming ------------------------------------------------------------------

    def prime_block(
        self, x: int, y: int, z: int, fuse_ticks: int | None = None
    ) -> Entity | None:
        """Convert a TNT block into a primed TNT entity."""
        if self.world.get_block(x, y, z) != Block.TNT:
            return None
        self.world.set_block(x, y, z, Block.AIR)
        fuse = (
            fuse_ticks
            if fuse_ticks is not None
            else DEFAULT_FUSE_TICKS + int(self.rng.integers(-10, 11))
        )
        return self.entities.spawn(
            EntityKind.TNT,
            x + 0.5,
            y + 0.5,
            z + 0.5,
            vx=float(self.rng.uniform(-0.02, 0.02)),
            vy=0.1,
            vz=float(self.rng.uniform(-0.02, 0.02)),
            fuse_ticks=max(1, fuse),
        )

    def prime_region(
        self,
        x0: int,
        y0: int,
        z0: int,
        x1: int,
        y1: int,
        z1: int,
        fuse_spread: tuple[int, int] = (70, 95),
    ) -> int:
        """Prime every TNT block in an inclusive cuboid; returns the count.

        Fuses are randomized within ``fuse_spread`` so the chain detonates
        as a multi-tick wave rather than a single impulse, matching how a
        large activated TNT cuboid behaves.
        """
        primed = 0
        lo, hi = fuse_spread
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                for z in range(z0, z1 + 1):
                    if self.world.get_block(x, y, z) == Block.TNT:
                        fuse = int(self.rng.integers(lo, hi + 1))
                        if self.prime_block(x, y, z, fuse) is not None:
                            primed += 1
        return primed

    # -- per-tick update -------------------------------------------------------------

    def tick(self, report: WorkReport) -> int:
        """Decrement fuses and explode expired TNT; returns explosion count.

        Fuse countdown is a single array op over the entity store; only
        the (few) expired entities come back as handles to detonate.
        """
        exploding = self.entities.expire_fuses()
        for entity in exploding:
            self.explode(entity, report)
        return len(exploding)

    # -- explosion --------------------------------------------------------------------

    def explode(self, entity: Entity, report: WorkReport) -> int:
        """Detonate ``entity``; returns the number of blocks destroyed."""
        self.entities.remove(entity)
        cx, cy, cz = entity.x, entity.y, entity.z
        report.add(Op.EXPLOSION_RAY, RAYS_PER_EXPLOSION)
        destroyed = self._destroy_sphere(cx, cy, cz, BLAST_RADIUS, report)
        self._knockback(cx, cy, cz)
        self.explosions_total += 1
        self.blocks_destroyed_total += destroyed
        return destroyed

    def _destroy_sphere(
        self, cx: float, cy: float, cz: float, radius: float,
        report: WorkReport,
    ) -> int:
        """Vectorized blast-sphere destruction: one gather over the
        sphere's bounding box, one bulk write of what it broke."""
        r = int(np.ceil(radius))
        y_lo = max(1, int(np.floor(cy - r)))
        y_hi = min(WORLD_HEIGHT - 1, int(np.floor(cy + r)))
        if y_hi < y_lo:
            return 0
        xs, ys, zs = cuboid_cells(
            int(np.floor(cx - r)), y_lo, int(np.floor(cz - r)),
            int(np.floor(cx + r)), y_hi, int(np.floor(cz + r)),
        )
        # Chunk by chunk (x, then z) and x, z, y inside each: the order in
        # which changes are logged and drops draw from the RNG.
        order = np.lexsort((zs >> 4, xs >> 4))
        xs, ys, zs = xs[order], ys[order], zs[order]
        blocks = self.world.blocks_bulk(xs, ys, zs)
        dist_sq = (
            (xs + 0.5 - cx) ** 2 + (zs + 0.5 - cz) ** 2 + (ys + 0.5 - cy) ** 2
        )
        # TNT blocks in (or just beyond) the blast get primed.
        primed = (blocks == Block.TNT) & (dist_sq <= (radius + 1.0) ** 2)
        broken = np.flatnonzero(
            (np.isin(blocks, _BREAKABLE_IDS) & (dist_sq <= radius * radius))
            | primed
        )
        chain_fuses = zip(*(a[primed].tolist() for a in (xs, ys, zs)))
        xs, ys, zs, blocks = xs[broken], ys[broken], zs[broken], blocks[broken]
        drops = 0
        for i in np.flatnonzero(_DROPS_ITEM_LUT[blocks]).tolist():
            if drops == MAX_DROPS_PER_EXPLOSION:
                break
            if self.rng.random() < DROP_CHANCE:
                self.entities.spawn(
                    EntityKind.ITEM,
                    int(xs[i]) + 0.5, int(ys[i]) + 0.5, int(zs[i]) + 0.5,
                    vy=0.15,
                )
                drops += 1
        # Blocks become air; their aux state is left as it was.
        destroyed = self.world.set_blocks_bulk(
            xs, ys, zs, np.zeros(broken.size, np.uint8),
            auxs=self.world.aux_bulk(xs, ys, zs),
        )
        for x, y, z in chain_fuses:
            # Chain-primed TNT gets a short random fuse (vanilla: 10-30).
            # The block was already cleared with the blast region above, so
            # spawn the primed entity directly.
            self.entities.spawn(
                EntityKind.TNT,
                x + 0.5,
                y + 0.5,
                z + 0.5,
                vx=float(self.rng.uniform(-0.05, 0.05)),
                vy=0.12,
                vz=float(self.rng.uniform(-0.05, 0.05)),
                fuse_ticks=int(self.rng.integers(10, 31)),
            )
        if destroyed:
            report.add(Op.BLOCK_ADD_REMOVE, destroyed)
            # Blast craters change occlusion; charge a local relight.
            report.add(Op.LIGHTING, destroyed * 6)
        return destroyed

    def _knockback(self, cx: float, cy: float, cz: float) -> None:
        """Impulse away from the blast center for nearby entities."""
        near = self.entities.entities_near(cx, cy, cz, BLAST_RADIUS * 2)
        for other in near:
            dx = other.x - cx
            dy = other.y - cy
            dz = other.z - cz
            dist = max(0.5, (dx * dx + dy * dy + dz * dz) ** 0.5)
            strength = 0.6 / dist
            other.vx += dx / dist * strength
            other.vy += abs(dy) / dist * strength * 0.5 + 0.05
            other.vz += dz / dist * strength


#: Blocks whose destruction may drop an item (TNT is primed instead).
_DROPS_ITEM_LUT = np.array(
    [spec(b).drops_item and b != Block.TNT for b in Block.ALL], dtype=np.bool_
)

_BREAKABLE_IDS = np.array(
    [
        block_id
        for block_id in Block.ALL
        if 0.0 <= spec(block_id).blast_resistance < 100.0
        and block_id != Block.AIR
    ],
    dtype=np.uint8,
)
