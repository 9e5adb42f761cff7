"""TNT and explosions — the paper's TNT workload substrate (§3.3.1).

Primed TNT is an entity with a fuse; on expiry it explodes, casting rays
(counted as work — vanilla casts 1352 rays per explosion), destroying
terrain in a blast sphere, priming any TNT blocks it uncovers (the chain
reaction), knocking back nearby entities, and occasionally dropping items.

PaperMC's TNT optimization (Appendix A / §5.3: "performance optimizations
specifically for handling TNT explosions") is modeled in the variant cost
table (cheaper rays/collisions) and by merging co-located TNT entities.

A chain reaction detonates dozens of entities in one tick, so the unit of
work is the tick: :meth:`TNTSystem.detonate` takes every fuse that expired
and computes what detonating them one after another would, from one gather
over all blast lattices, one bulk write and one distance matrix.  The
one-after-another code is the oracle of
``tests/mlg/test_tnt_batch_parity.py``.
"""

from __future__ import annotations

import numpy as np

from repro.mlg.blocks import Block, spec
from repro.mlg.constants import WORLD_HEIGHT
from repro.mlg.entity import Entity, EntityKind
from repro.mlg.entity_manager import EntityManager
from repro.mlg.workreport import Op, WorkReport
from repro.mlg.world import World, run_heads

__all__ = ["TNTSystem", "RAYS_PER_EXPLOSION"]

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

    def _spawn_primed(self, x: int, y: int, z: int, fuse: int) -> Entity:
        """The primed entity of the (already cleared) TNT block."""
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
        large activated TNT cuboid behaves.  The cuboid is read once and
        cleared by one bulk write, in x, y, z order — the order the blocks
        are logged, draw their fuses and spawn in.
        """
        lo, hi = fuse_spread
        tnt = self.world.blocks_cuboid(x0, y0, z0, x1, y1, z1) == Block.TNT
        ix, iy, iz = np.nonzero(tnt.transpose(0, 2, 1))
        xs, ys, zs = ix + x0, iy + y0, iz + z0
        self.world.set_blocks_bulk(xs, ys, zs, np.zeros(xs.size, np.uint8))
        for x, y, z in zip(xs.tolist(), ys.tolist(), zs.tolist()):
            self._spawn_primed(x, y, z, int(self.rng.integers(lo, hi + 1)))
        return int(xs.size)

    # -- per-tick update -------------------------------------------------------------

    def tick(self, report: WorkReport) -> int:
        """Decrement fuses and explode expired TNT; returns explosion count.

        Fuse countdown is a single array op over the entity store; the
        expired entities detonate together, as one batch.
        """
        exploding = self.entities.expire_fuses()
        if exploding:
            self.detonate(exploding, report)
        return len(exploding)

    # -- explosion --------------------------------------------------------------------

    def detonate(self, entities: list[Entity], report: WorkReport) -> int:
        """Detonate ``entities`` as one batch; returns the blocks destroyed.

        The outcome is that of detonating them one after another in the
        order given: a block goes to the first explosion whose rule hits
        it, each explosion's drops and chain fuses spawn (and draw from the
        RNG) before the next one's, and an entity is pushed by exactly the
        explosions it was alive for, in order.
        """
        if not entities:
            return 0
        manager, store = self.entities, self.entities.store
        slots = manager.slots_of(entities)
        manager.remove_slots(slots)
        centres = store.x[slots], store.y[slots], store.z[slots]
        report.add(Op.EXPLOSION_RAY, RAYS_PER_EXPLOSION * len(entities))
        n_before = len(manager.spawned_this_tick)
        destroyed, born_rows = self._destroy_spheres(
            *centres, BLAST_RADIUS, report
        )
        born_slots = manager.slots_of(manager.spawned_this_tick[n_before:])
        self._knockback(slots, *centres, born_slots, born_rows)
        self.explosions_total += len(entities)
        self.blocks_destroyed_total += destroyed
        return destroyed

    def _destroy_spheres(
        self, cx: np.ndarray, cy: np.ndarray, cz: np.ndarray, radius: float,
        report: WorkReport,
    ) -> tuple[int, list[int]]:
        """Blast-sphere destruction for every centre (row): one gather over
        the ``[rows, x, z, y]`` lattice of bounding boxes, one bulk write of
        what the spheres broke.  Returns the blocks destroyed and, for each
        entity spawned, the row that spawned it."""
        r = int(np.ceil(radius))
        x, x_ok = _lattice(np.floor(cx - r), np.floor(cx + r))
        z, z_ok = _lattice(np.floor(cz - r), np.floor(cz + r))
        y, y_ok = _lattice(
            np.maximum(1, np.floor(cy - r)),
            np.minimum(WORLD_HEIGHT - 1, np.floor(cy + r)),
        )
        x, x_ok = x[:, :, None, None], x_ok[:, :, None, None]
        z, z_ok = z[:, None, :, None], z_ok[:, None, :, None]
        y, y_ok = y[:, None, None, :], y_ok[:, None, None, :]
        blocks = self.world.blocks_bulk(x, y, z)
        centre = (slice(None), None, None, None)
        dist_sq = (
            (x + 0.5 - cx[centre]) ** 2 + (z + 0.5 - cz[centre]) ** 2
            + (y + 0.5 - cy[centre]) ** 2
        )
        # TNT blocks in (or just beyond) the blast get primed.
        hit = (_BREAKABLE_LUT[blocks] & (dist_sq <= radius * radius)) | (
            (blocks == Block.TNT) & (dist_sq <= (radius + 1.0) ** 2)
        )
        rows, ix, iz, iy = np.nonzero(hit & x_ok & z_ok & y_ok)
        born_rows: list[int] = []
        if rows.size == 0:
            return 0, born_rows
        blocks = blocks[rows, ix, iz, iy]
        xs, ys, zs = x[rows, ix, 0, 0], y[rows, 0, 0, iy], z[rows, 0, iz, 0]
        if cx.size > 1:
            # A broken cell reads AIR to every later row: it belongs to
            # the first row that hit it (``rows`` is ascending).
            _, first = np.unique(
                ((xs << 36) ^ ((zs & 0xFFFFFFF) << 8)) ^ ys, return_index=True
            )
            first.sort()
            rows, blocks = rows[first], blocks[first]
            xs, ys, zs = xs[first], ys[first], zs[first]
        # Row by row; within one, chunk by chunk (x, then z) and x, z, y
        # inside each: the order in which changes are logged and drops
        # draw from the RNG.
        order = np.lexsort((zs >> 4, xs >> 4, rows))
        rows, blocks = rows[order], blocks[order]
        xs, ys, zs = xs[order], ys[order], zs[order]
        drop_at = np.flatnonzero(_DROPS_ITEM_LUT[blocks])
        fuse_at = np.flatnonzero(blocks == Block.TNT)
        row_ids = np.arange(cx.size + 1)
        drop_ends = np.searchsorted(rows[drop_at], row_ids).tolist()
        fuse_ends = np.searchsorted(rows[fuse_at], row_ids).tolist()
        drop_at, fuse_at = drop_at.tolist(), fuse_at.tolist()
        cells = list(zip(xs.tolist(), ys.tolist(), zs.tolist()))
        spawn = self.entities.spawn
        for row in rows[run_heads(rows)].tolist():
            born = 0  # drops first, capped; then the chain fuses
            for i in drop_at[drop_ends[row] : drop_ends[row + 1]]:
                if born == MAX_DROPS_PER_EXPLOSION:
                    break
                if self.rng.random() < DROP_CHANCE:
                    bx, by, bz = cells[i]
                    spawn(
                        EntityKind.ITEM, bx + 0.5, by + 0.5, bz + 0.5, vy=0.15
                    )
                    born += 1
            for i in fuse_at[fuse_ends[row] : fuse_ends[row + 1]]:
                # Chain-primed TNT gets a short random fuse (vanilla:
                # 10-30).  The block is cleared with the blast region
                # below, so spawn the primed entity directly.
                bx, by, bz = cells[i]
                spawn(
                    EntityKind.TNT,
                    bx + 0.5,
                    by + 0.5,
                    bz + 0.5,
                    vx=float(self.rng.uniform(-0.05, 0.05)),
                    vy=0.12,
                    vz=float(self.rng.uniform(-0.05, 0.05)),
                    fuse_ticks=int(self.rng.integers(10, 31)),
                )
                born += 1
            born_rows.extend([row] * born)
        # Blocks become air; their aux state is left as it was.
        destroyed = self.world.set_blocks_bulk(
            xs, ys, zs, np.zeros(xs.size, np.uint8),
            auxs=self.world.aux_bulk(xs, ys, zs),
        )
        report.add(Op.BLOCK_ADD_REMOVE, destroyed)
        # Blast craters change occlusion; charge a local relight.
        report.add(Op.LIGHTING, destroyed * 6)
        return destroyed, born_rows

    def _knockback(
        self, slots: np.ndarray, cx: np.ndarray, cy: np.ndarray,
        cz: np.ndarray, born_slots: np.ndarray, born_rows: list[int],
    ) -> None:
        """Impulse away from each blast centre (row) for the entities near
        it that were alive when it went off: the exploded entity of row
        ``k`` until row ``k``, an entity spawned by row ``k`` from row ``k``.

        Impulses are added entity by entity in row order (``add.at`` is
        unbuffered): float addition is not associative.
        """
        store = self.entities.store
        n_rows = slots.size
        born = np.full(store.capacity, -1)
        born[born_slots] = born_rows
        gone = np.full(store.capacity, n_rows)
        gone[slots] = np.arange(n_rows)
        others = np.flatnonzero(store.alive | (gone < n_rows))
        born, gone = born[others], gone[others]
        ox, oy, oz = store.x[others], store.y[others], store.z[others]
        reach_sq = (BLAST_RADIUS * 2) * (BLAST_RADIUS * 2)
        strip = min(n_rows, max(1, _KNOCKBACK_CELLS // others.size))
        buffers = np.empty((2, strip, others.size))
        for start in range(0, n_rows, strip):
            rows = slice(start, min(start + strip, n_rows))
            dist_sq, square = buffers[:, : rows.stop - start]
            np.subtract(ox, cx[rows, None], out=dist_sq)
            np.multiply(dist_sq, dist_sq, out=dist_sq)
            for o, c in ((oy, cy), (oz, cz)):
                np.subtract(o, c[rows, None], out=square)
                np.multiply(square, square, out=square)
                dist_sq += square
            row, other = np.divmod(
                np.flatnonzero(dist_sq <= reach_sq), others.size
            )
            row += start
            pair = np.flatnonzero((born[other] <= row) & (gone[other] > row))
            row, other = row[pair], other[pair]
            dx = ox[other] - cx[row]
            dy = oy[other] - cy[row]
            dz = oz[other] - cz[row]
            # float_power is libm pow, as the scalar ``** 0.5`` was.
            dist = np.maximum(
                0.5, np.float_power(dx * dx + dy * dy + dz * dz, 0.5)
            )
            strength = 0.6 / dist
            pushed = others[other]
            np.add.at(store.vx, pushed, dx / dist * strength)
            np.add.at(
                store.vy, pushed, np.abs(dy) / dist * strength * 0.5 + 0.05
            )
            np.add.at(store.vz, pushed, dz / dist * strength)


def _lattice(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``[rows, width]`` integer coordinates ``lo[row] + 0, 1, ...`` wide
    enough for every row's inclusive ``lo..hi``, and which of them lie
    within their own row's range."""
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    cells = lo[:, None] + np.arange(max(0, int((hi - lo).max()) + 1))
    return cells, cells <= hi[:, None]


#: Most cells of one knockback distance matrix (explosions x entities);
#: more explosions than fit are pushed strip by strip.  At 256 KiB a
#: float64 buffer the strip's two stay in cache, which measured a third
#: faster than a matrix of a million cells.
_KNOCKBACK_CELLS = 1 << 15

#: Blocks whose destruction may drop an item (TNT is primed instead).
_DROPS_ITEM_LUT = np.array(
    [spec(b).drops_item and b != Block.TNT for b in Block.ALL], dtype=np.bool_
)

#: Blocks an explosion breaks, indexed by any ``uint8`` block id.
_BREAKABLE_LUT = np.zeros(256, dtype=np.bool_)
_BREAKABLE_LUT[
    [
        block_id
        for block_id in Block.ALL
        if 0.0 <= spec(block_id).blast_resistance < 100.0
        and block_id != Block.AIR
    ]
] = True
