"""Per-explosion TNT as it stood before a tick's detonations became one
batch, verbatim: the oracle of ``test_tnt_batch_parity.py``.

``OracleTNTSystem`` detonates one expired fuse after another — each
explosion gathers its own bounding box, breaks what its own rule hits in
the world the previous explosion left, spawns its drops and chain fuses,
and pushes whatever ``entities_near`` returns at that moment — and primes
a region one ``get_block`` / ``set_block`` at a time.  Nothing here is
imported by ``src/``.
"""

import numpy as np

from repro.mlg.blocks import Block, spec
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import EntityKind
from repro.mlg.tnt import (
    BLAST_RADIUS,
    DROP_CHANCE,
    MAX_DROPS_PER_EXPLOSION,
    RAYS_PER_EXPLOSION,
    TNTSystem,
)
from repro.mlg.workreport import Op
from repro.mlg.world import cuboid_cells

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


class OracleTNTSystem(TNTSystem):
    """:class:`TNTSystem` with the per-event code paths it used to have."""

    def prime_region(self, x0, y0, z0, x1, y1, z1, fuse_spread=(70, 95)):
        primed = 0
        lo, hi = fuse_spread
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                for z in range(z0, z1 + 1):
                    if self.world.get_block(x, y, z) == Block.TNT:
                        fuse = int(self.rng.integers(lo, hi + 1))
                        self.world.set_block(x, y, z, Block.AIR)
                        self._spawn_primed(x, y, z, fuse)
                        primed += 1
        return primed

    def detonate(self, entities, report):
        """Detonate ``entities`` one after another; returns the blocks
        destroyed."""
        return sum(self._explode(entity, report) for entity in entities)

    def _explode(self, entity, report):
        self.entities.remove(entity)
        cx, cy, cz = entity.x, entity.y, entity.z
        report.add(Op.EXPLOSION_RAY, RAYS_PER_EXPLOSION)
        destroyed = self._destroy_sphere(cx, cy, cz, BLAST_RADIUS, report)
        self._knockback(cx, cy, cz)
        self.explosions_total += 1
        self.blocks_destroyed_total += destroyed
        return destroyed

    def _destroy_sphere(self, cx, cy, cz, radius, report):
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

    def _knockback(self, cx, cy, cz):
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
