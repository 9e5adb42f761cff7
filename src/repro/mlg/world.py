"""Chunked voxel world — the terrain state of the operational model (§2.3).

The world is an endless horizontal grid of 16×16×``WORLD_HEIGHT`` chunks,
lazily created (and optionally generated) when first touched.  Chunk state
lives in a :class:`~repro.mlg.chunk_arena.ChunkArena`, one slab per field,
and :class:`Chunk` objects are handles over its slots, so the bulk queries
below are single gathers however many chunks they span.  Every block
mutation is appended to a per-tick change log which the game loop drains to
drive terrain simulation triggers and client state-update packets.  The log
is columnar: a bulk write appends its arrays as one segment, a scalar
:meth:`World.set_block` its :class:`BlockChange` record (a tick's records
become one segment before the next bulk one), and a drain hands the tick's
segments back as one :class:`BlockChanges`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from functools import partial
from typing import NamedTuple

import numpy as np

from repro.mlg.blocks import SOLID_LUT, Block, is_solid
from repro.mlg.chunk_arena import (
    LAYER,
    Chunk,
    ChunkArena,
    column_tops,
    pack_keys,
    strips,
)
from repro.mlg.constants import WORLD_HEIGHT

__all__ = [
    "BlockChange", "BlockChanges", "Chunk", "World", "cuboid_cells",
    "face_neighbours", "in_sorted", "pack_cells", "run_heads", "unpack_cells",
]

Array = np.ndarray
_int64 = partial(np.asarray, dtype=np.int64)


class BlockChange(NamedTuple):
    """One block mutation, as recorded in the world's change log."""

    x: int
    y: int
    z: int
    old: int
    new: int


class BlockChanges:
    """Block mutations in log order, one ``int64`` column per
    :class:`BlockChange` field: what :meth:`World.drain_changes` returns."""

    __slots__ = BlockChange._fields

    def __init__(self, x, y, z, old, new) -> None:
        self.x, self.y, self.z = _int64(x), _int64(y), _int64(z)
        self.old, self.new = _int64(old), _int64(new)

    @classmethod
    def from_records(cls, records: Iterable[BlockChange]) -> BlockChanges:
        """The columns of ``records``, in their order."""
        rows = np.array(list(records), dtype=np.int64)
        return cls(*rows.reshape(-1, len(cls.__slots__)).T)

    def __len__(self) -> int:
        return self.x.size

    def records(self) -> list[BlockChange]:
        """One :class:`BlockChange` per row, in log order."""
        columns = (getattr(self, name).tolist() for name in self.__slots__)
        return list(map(BlockChange, *columns))


#: What a tick without block changes drains.
_NO_CHANGES = BlockChanges.from_records(())


#: Cells :func:`pack_cells` can pack: ``-2**23 <= x, z < 2**23`` and
#: ``-2**15 <= y < 2**15``, biased to 24 and 16 unsigned bits.
_XZ_BIAS, _Y_BIAS = 1 << 23, 1 << 15


def pack_cells(xs, ys, zs) -> Array:
    """One ``int64`` key per cell, injective over the packable range;
    raises ``ValueError`` naming the first cell outside it instead of
    letting two cells share a key."""
    xs, ys, zs = _int64(xs), _int64(ys) + _Y_BIAS, _int64(zs) + _XZ_BIAS
    off = ((xs + _XZ_BIAS) | zs) >> 24 | ys >> 16
    if off.any():
        at = np.unravel_index(off.ravel().nonzero()[0][0], off.shape)
        cell = (int(xs[at]), int(ys[at]) - _Y_BIAS, int(zs[at]) - _XZ_BIAS)
        raise ValueError(
            f"cell {cell} is outside the packable range "
            f"(|x|, |z| < 2**23, |y| < 2**15)"
        )
    zs <<= 16
    zs |= ys
    zs |= xs << 40
    return zs


def in_sorted(keys: Array, table: Array) -> Array:
    """Mask: is each of ``keys`` in ``table`` (sorted, not empty)?"""
    at = table.searchsorted(keys)
    np.minimum(at, table.size - 1, out=at)
    return table[at] == keys


def run_heads(ranked: Array) -> Array:
    """Mask of the first of each run of equal values in a sorted array:
    ``ranked[run_heads(ranked)]`` is ``np.unique(ranked)``, without the
    import of ``numpy.ma`` that ``np.unique``'s first call costs (15 ms,
    in every process that makes it)."""
    head = np.empty(ranked.size, np.bool_)
    head[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
    return head


def unpack_cells(keys: Array) -> tuple[Array, Array, Array]:
    """``(xs, ys, zs)`` of :func:`pack_cells` keys."""
    return (
        keys >> 40,
        (keys & 0xFFFF) - _Y_BIAS,
        (keys >> 16 & 0xFFFFFF) - _XZ_BIAS,
    )


#: x, y and z offsets of the six face neighbours, in
#: :meth:`World.neighbors6` order.
_FACES = np.array(
    [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
)


def face_neighbours(xs, ys, zs) -> tuple[Array, ...]:
    """``[n, 6]`` coordinates of each cell's face neighbours, row by row in
    :meth:`World.neighbors6` order."""
    return tuple(_int64(a)[:, None] + d for a, d in zip((xs, ys, zs), _FACES))


def cuboid_cells(
    x0: int, y0: int, z0: int, x1: int, y1: int, z1: int
) -> tuple[Array, Array, Array]:
    """``(xs, ys, zs)`` of every cell of an inclusive cuboid, ordered by x,
    then z, then y (the scalar loops' change-log order, and a logged
    :meth:`World.fill`'s): the cells a cuboid write wakes, or writes as a
    bulk write."""
    xs, zs, ys = np.meshgrid(
        np.arange(x0, x1 + 1),
        np.arange(z0, z1 + 1),
        np.arange(y0, y1 + 1),
        indexing="ij",
    )
    return xs.ravel(), ys.ravel(), zs.ravel()


class World:
    """The global terrain state: an arena of loaded chunks.

    ``generator`` — when provided — populates newly created chunks, which
    models the lazy terrain generation of §2.2.2.  One with a
    ``generate(chunks)`` method (:class:`~repro.mlg.worldgen.
    TerrainGenerator`) is handed every chunk an :meth:`ensure_chunks` call
    created, once, and leaves their heightmaps in step with their blocks;
    a plain ``generator(chunk) -> None`` callable is called for each, and
    the world rebuilds their heightmaps after it.

    ``loader`` — when provided — is consulted *before* the generator when
    a missing chunk is touched (signature ``loader(cx, cz, create) ->
    Chunk | None``): the hook through which the persistence layer streams
    chunks back in from region files.  ``create(cx, cz)`` claims the
    chunk's arena slot and returns its all-air handle, so a loader that
    has the bytes decodes them where they will live; one that already
    holds a free-standing chunk returns that, and it is copied in.  A
    ``None`` return (nothing claimed) falls through to generation.  Light
    is not persisted, so the hook comes with a second one (see
    :meth:`set_loader`) that relights what an :meth:`ensure_chunks` call
    loaded, together.
    """

    def __init__(
        self,
        generator: Callable[[Chunk], None] | None = None,
        loader: Callable[..., Chunk | None] | None = None,
    ) -> None:
        self._arena = ChunkArena()
        #: ``(cx, cz) → handle`` in load order (owned by the arena).
        self._chunks = self._arena.handles
        self._generator = generator
        self._loader = loader
        self._relight: Callable[[list[Chunk]], object] | None = None
        #: The change log: segments, then the scalar writes' records
        #: since the last segment.
        self._change_log: list[BlockChanges] = []
        self._change_records: list[BlockChange] = []
        #: Chunks generated since the last drain (for work accounting).
        self.chunks_generated_this_tick = 0

    # -- chunk management ---------------------------------------------------

    def has_chunk(self, cx: int, cz: int) -> bool:
        return (cx, cz) in self._chunks

    def get_chunk(self, cx: int, cz: int) -> Chunk | None:
        return self._chunks.get((cx, cz))

    def ensure_chunk(self, cx: int, cz: int) -> Chunk:
        """Return the chunk, creating (and generating) it if needed."""
        chunk = self._chunks.get((cx, cz))  # every scalar write comes here
        if chunk is None:
            chunk = self.ensure_chunks(((cx, cz),))[0][0]
        return chunk

    def ensure_chunks(
        self, coords: Iterable[tuple[int, int]]
    ) -> list[tuple[Chunk, str]]:
        """Make every ``(cx, cz)`` resident, in order; returns ``(chunk,
        source)`` per coordinate pair.

        ``source`` says where the chunk came from — ``"resident"`` (already
        in memory), ``"loaded"`` (read back through the loader hook) or
        ``"generated"`` — the distinction the cost model charges
        differently.  Slots are claimed one coordinate at a time, so load
        order is the order of ``coords``; the chunks that had to be created
        are then generated together, and the loaded ones relit together.
        """
        ensured, created, loaded = [], [], []
        try:
            for cx, cz in coords:
                chunk, source = self._chunks.get((cx, cz)), "resident"
                if chunk is None and self._loader is not None:
                    chunk = self._loader(cx, cz, self._arena.create)
                    source = "loaded"
                    if chunk is not None:
                        if chunk._page.base < 0:
                            self._arena.adopt(chunk)
                        loaded.append(chunk)
                if chunk is None:
                    chunk, source = self._arena.create(cx, cz), "generated"
                    created.append(chunk)
                ensured.append((chunk, source))
        finally:
            # Also when a loader raised: no created chunk stays blank, no
            # loaded one unlit.
            if created and self._generator is not None:
                self._generate(created)
            if loaded and self._relight is not None:
                self._relight(loaded)
        return ensured

    def _generate(self, created: list[Chunk]) -> None:
        generate = getattr(self._generator, "generate", None)
        if generate is not None:
            generate(created)
        else:
            for chunk in created:
                self._generator(chunk)
            for strip in strips(created):
                nonair = strip.read("blocks") != Block.AIR  # [n, y, x, z]
                tops = column_tops(np.moveaxis(nonair, 1, -1))
                strip.write("heightmap", tops)
        self.chunks_generated_this_tick += len(created)

    def set_loader(
        self,
        loader: Callable[..., Chunk | None] | None,
        relight: Callable[[list[Chunk]], object] | None = None,
    ) -> None:
        """Install the disk-load hook (wired by the chunk lifecycle) and
        ``relight(chunks)``, called once per :meth:`ensure_chunks` with
        the chunks the loader returned, after the last of them."""
        self._loader = loader
        self._relight = relight

    def adopt_chunk(  # test-only: loads adopt through ensure_chunks
        self, chunk: Chunk
    ) -> Chunk:
        """Install a free-standing chunk (deserialization) by copying it
        into the arena, replacing any resident chunk at its coordinates;
        ``chunk`` becomes the handle of its slot."""
        return self._arena.adopt(chunk)

    @property
    def generator(self) -> Callable[[Chunk], None] | None:
        """What populates newly created chunks (``None``: they stay air)."""
        return self._generator

    def unload_chunk(  # test-only: eviction and warm-up unload in batches
        self, cx: int, cz: int
    ) -> None:
        """Drop a chunk from memory (the eviction half of streaming); a
        no-op when it is not loaded.

        Its state is gone and its handle raises on the next read.  The
        caller (the lifecycle manager) must never evict unsaved dirty
        state.
        """
        self._arena.release(cx, cz)

    def unload_chunks(self, coords: Iterable[tuple[int, int]]) -> None:
        """:meth:`unload_chunk` each of ``coords``, their slots released
        together (one page-release call per contiguous run)."""
        self._arena.release_chunks(coords)

    def loaded_chunks(self) -> Iterator[Chunk]:
        return iter(self._chunks.values())

    def loaded_keys(self):
        """Set-like view of the loaded ``(cx, cz)``, in load order."""
        return self._chunks.keys()

    def loaded_coords(self) -> Array:
        """The loaded ``(cx, cz)`` as one ``[n, 2]`` array, in load order
        (shared with the arena's index: read it, do not write it)."""
        return self._arena.coords()

    @property
    def loaded_chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def nbytes(self) -> int:
        """Total chunk memory, the world's contribution to heap usage."""
        return len(self._chunks) * Chunk.NBYTES

    def dirty_keys(self) -> list[tuple[int, int]]:
        """Loaded ``(cx, cz)`` modified since they were last marked clean."""
        flags = self._arena.gather("dirty", self._arena.order())
        keys = list(self._chunks)
        return [keys[i] for i in np.flatnonzero(flags).tolist()]

    def dirty_count(self) -> int:
        return int(self._arena.gather("dirty", self._arena.order()).sum())

    # -- block access -------------------------------------------------------

    def in_bounds_y(self, y: int) -> bool:
        return 0 <= y < WORLD_HEIGHT

    def get_block(self, x: int, y: int, z: int) -> int:
        """Block id at world coordinates; AIR outside vertical bounds or in
        unloaded chunks (reads never force generation)."""
        if not 0 <= y < WORLD_HEIGHT:
            return Block.AIR
        chunk = self._chunks.get((x >> 4, z >> 4))
        if chunk is None:
            return Block.AIR
        return int(chunk._page.blocks[chunk._slot, y, x & 15, z & 15])

    def get_aux(self, x: int, y: int, z: int) -> int:
        if not 0 <= y < WORLD_HEIGHT:
            return 0
        chunk = self._chunks.get((x >> 4, z >> 4))
        if chunk is None:
            return 0
        return int(chunk._page.aux[chunk._slot, y, x & 15, z & 15])

    def set_aux(self, x: int, y: int, z: int, value: int) -> None:
        if not 0 <= y < WORLD_HEIGHT:
            return
        chunk = self.ensure_chunk(x >> 4, z >> 4)
        chunk._page.aux[chunk._slot, y, x & 15, z & 15] = value & 0xFF
        chunk._page.dirty[chunk._slot] = True

    def set_block(
        self, x: int, y: int, z: int, block_id: int, aux: int = 0,
        log: bool = True,
    ) -> BlockChange | None:
        """Write a block; returns the change (or None when it is a no-op).

        ``aux`` is stored only when it differs from the cell's, so a write
        that leaves a zero ``aux`` zero does not touch its page.
        ``log=False`` suppresses the change log — used by bulk world
        construction before an experiment starts, so that building a workload
        world does not masquerade as runtime terrain work.
        """
        if not 0 <= y < WORLD_HEIGHT:
            return None
        chunk = self.ensure_chunk(x >> 4, z >> 4)
        page, slot = chunk._page, chunk._slot
        lx, lz = x & 15, z & 15
        old = int(page.blocks[slot, y, lx, lz])
        old_aux = int(page.aux[slot, y, lx, lz])
        if old == block_id and old_aux == aux:
            return None
        page.blocks[slot, y, lx, lz] = block_id
        if old_aux != aux & 0xFF:
            page.aux[slot, y, lx, lz] = aux & 0xFF
        page.dirty[slot] = True
        height = int(page.heightmap[slot, lx, lz])
        if block_id != Block.AIR and y >= height:
            page.heightmap[slot, lx, lz] = y + 1
        elif block_id == Block.AIR and y == height - 1:
            chunk.update_height_at(lx, lz)
        change = BlockChange(x, y, z, old, block_id)
        if log:
            self._change_records.append(change)
        return change

    # -- change log ---------------------------------------------------------

    def _log_changes(self, changes: BlockChanges | None = None) -> None:
        """Close the pending records into a segment, then append
        ``changes``: the log stays in write order."""
        if self._change_records:
            self._change_log.append(
                BlockChanges.from_records(self._change_records)
            )
            self._change_records = []
        if changes is not None:
            self._change_log.append(changes)

    def drain_changes(self) -> BlockChanges:
        """Return and clear this tick's block changes."""
        self.chunks_generated_this_tick = 0
        if not self._change_log and not self._change_records:
            return _NO_CHANGES
        self._log_changes()
        parts, self._change_log = self._change_log, []
        if len(parts) == 1:
            return parts[0]
        return BlockChanges(*(
            np.concatenate([getattr(part, name) for part in parts])
            for name in BlockChange._fields
        ))

    # -- queries used by the engines ----------------------------------------

    def column_height(self, x: int, z: int) -> int:
        """Top of the highest block in the column (0 if empty/unloaded)."""
        chunk = self._chunks.get((x >> 4, z >> 4))
        if chunk is None:
            return 0
        return int(chunk._page.heightmap[chunk._slot, x & 15, z & 15])

    def _locate(self, xs: Array, zs: Array) -> tuple[Array, Array]:
        """``(slots, loaded)`` of the chunk over each column (see
        :meth:`ChunkArena.locate`)."""
        return self._arena.locate(xs >> 4, zs >> 4)

    def _columns(self, xs: Array, zs: Array) -> tuple[Array, Array]:
        """``(flat, loaded)``: the :meth:`ChunkArena.voxel_index` of each
        column's ``y = 0`` voxel (a stand-in column's where no chunk is
        loaded; add ``y * LAYER``), and whether its chunk is loaded."""
        slots, loaded = self._locate(xs, zs)
        return self._arena.voxel_index(slots, xs & 15, zs & 15), loaded

    def _voxels_bulk(self, xs, ys, zs, *fields: str) -> list[Array]:
        """Each of ``fields`` at the same positions (coordinate arrays
        that broadcast against each other), from one chunk lookup."""
        xs, ys, zs = _int64(xs), _int64(ys), _int64(zs)
        flat, ok = self._columns(xs, zs)
        # A y below 0 reads as a huge unsigned value: one compare checks
        # both bounds.
        ok = ok & (ys.view(np.uint64) < WORLD_HEIGHT)
        flat = np.where(ok, flat + ys * LAYER, 0)
        return [
            np.where(ok, self._arena.take(field, flat), np.uint8(0))
            for field in fields
        ]

    def blocks_bulk(self, xs: Array, ys: Array, zs: Array) -> Array:
        """Vectorized :meth:`get_block` for integer coordinate arrays
        (which may broadcast against each other: a lattice is three axes).

        AIR outside vertical bounds and in unloaded chunks, matching the
        scalar read semantics (reads never force generation).
        """
        return self._voxels_bulk(xs, ys, zs, "blocks")[0]

    def blocks_and_aux_bulk(
        self, xs: Array, ys: Array, zs: Array
    ) -> tuple[Array, Array]:
        """:meth:`blocks_bulk` and :meth:`aux_bulk` of the same positions."""
        blocks, aux = self._voxels_bulk(xs, ys, zs, "blocks", "aux")
        return blocks, aux

    def blocks_cuboid(
        self, x0: int, y0: int, z0: int, x1: int, y1: int, z1: int
    ) -> Array:
        """Block ids of an inclusive cuboid as ``[x, z, y]``: one slice
        copy per chunk under it, AIR where :meth:`get_block` reads AIR."""
        out = np.zeros((x1 - x0 + 1, z1 - z0 + 1, y1 - y0 + 1), np.uint8)
        ya, yb = max(y0, 0), min(y1, WORLD_HEIGHT - 1)
        if ya > yb:
            return out
        for cx in range(x0 >> 4, (x1 >> 4) + 1):
            xa, xb = max(x0, cx << 4), min(x1, (cx << 4) + 15)
            for cz in range(z0 >> 4, (z1 >> 4) + 1):
                chunk = self._chunks.get((cx, cz))
                if chunk is None:
                    continue
                za, zb = max(z0, cz << 4), min(z1, (cz << 4) + 15)
                out[
                    xa - x0 : xb - x0 + 1, za - z0 : zb - z0 + 1,
                    ya - y0 : yb - y0 + 1,
                ] = chunk._page.blocks[
                    chunk._slot, ya : yb + 1,
                    xa & 15 : (xb & 15) + 1, za & 15 : (zb & 15) + 1,
                ].transpose(1, 2, 0)
        return out

    def aux_bulk(self, xs: Array, ys: Array, zs: Array) -> Array:
        """Vectorized :meth:`get_aux` for integer coordinate arrays."""
        return self._voxels_bulk(xs, ys, zs, "aux")[0]

    def blocks_per_chunk(self, lxs: Array, lzs: Array, ys: Array) -> Array:
        """Block ids at chunk-local positions: equal consecutive runs of
        the inputs belong to each loaded chunk, in :meth:`loaded_chunks`
        order (the random-tick read, one gather for the whole world)."""
        order = self._arena.order()
        slots = np.repeat(order, lxs.size // max(1, order.size))
        return self._arena.gather("blocks", slots, ys, lxs, lzs)

    def _slots_for_write(self, xs: Array, zs: Array) -> Array:
        """Slot of the chunk over each column, loading or generating the
        missing ones first (in packed-key order, which fixes their rank in
        :meth:`loaded_chunks` and so the random-tick pairing)."""
        cxs, czs = xs >> 4, zs >> 4
        slots, loaded = self._arena.locate(cxs, czs)
        missing = (~loaded).nonzero()[0]
        if missing.size:
            _, first = np.unique(
                pack_keys(cxs[missing], czs[missing]), return_index=True
            )
            new = missing[first]
            self.ensure_chunks(zip(cxs[new].tolist(), czs[new].tolist()))
            slots = self._arena.locate(cxs, czs)[0]
        return slots

    def set_aux_bulk(
        self, xs: Array, ys: Array, zs: Array, values: Array
    ) -> None:
        """Vectorized :meth:`set_aux`: no change log, marks chunks dirty.

        Positions must be unique (duplicate targets would make the write
        order unspecified, unlike the scalar last-write-wins loop).
        """
        ys = _int64(ys)
        sel = np.flatnonzero((ys >= 0) & (ys < WORLD_HEIGHT))
        if sel.size == 0:
            return
        xs, zs = _int64(xs)[sel], _int64(zs)[sel]
        slots = self._slots_for_write(xs, zs)
        self._arena.scatter(
            "aux", slots, ys[sel], xs & 15, zs & 15,
            values=np.asarray(values).astype(np.uint8)[sel],
        )
        self._arena.scatter("dirty", slots, values=np.ones(sel.size, np.bool_))

    def set_blocks_bulk(
        self, xs: Array, ys: Array, zs: Array, block_ids: Array,
        auxs: Array | None = None, log: bool = True,
    ) -> int:
        """Vectorized :meth:`set_block`; returns the number of real changes.

        One gather reads the old state, one scatter per field writes the
        new, heightmaps follow, and the changes are appended to the log as
        one segment, in input order.  No-op writes (same block and aux) are
        skipped like the scalar path, and ``aux`` is scattered only to the
        changed cells whose ``aux`` differs: carving air over terrain (an
        explosion) leaves the lazily zeroed ``aux`` pages untouched.
        Positions must be unique; out-of-bounds y positions are ignored.
        """
        xs, ys, zs = _int64(xs), _int64(ys), _int64(zs)
        block_ids = np.asarray(block_ids).astype(np.uint8)
        if auxs is None:
            auxs = np.zeros(xs.shape, dtype=np.uint8)
        else:
            auxs = np.asarray(auxs).astype(np.uint8)
        sel = np.flatnonzero((ys >= 0) & (ys < WORLD_HEIGHT))
        if sel.size == 0:
            return 0
        arena = self._arena
        slots = self._slots_for_write(xs[sel], zs[sel])
        at = (slots, ys[sel], xs[sel] & 15, zs[sel] & 15)
        old = arena.gather("blocks", *at)
        new_aux = arena.gather("aux", *at) != auxs[sel]
        mask = (old != block_ids[sel]) | new_aux
        if not mask.any():
            return 0
        # Everything below is in input order, restricted to real changes
        # (so a section none of them is in is never written).
        sel, old, new_aux = sel[mask], old[mask], new_aux[mask]
        slots, y, lx, lz = at = tuple(a[mask] for a in at)
        new = block_ids[sel]
        arena.scatter("blocks", *at, values=new)
        if new_aux.any():
            arena.scatter(
                "aux", *(a[new_aux] for a in at), values=auxs[sel[new_aux]]
            )
        arena.scatter("dirty", slots, values=np.ones(sel.size, np.bool_))
        solid = new != Block.AIR
        if solid.any():
            arena.scatter(
                "heightmap", slots[solid], lx[solid], lz[solid],
                values=(y[solid] + 1).astype(np.int16), ufunc=np.maximum,
            )
        if not solid.all():
            # Carving air can lower a column top; rescan only columns
            # whose recorded top was the carved cell (positions are
            # unique, so at most one cell a column), all in one gather.
            air = np.flatnonzero(~solid)
            tops = arena.gather("heightmap", slots[air], lx[air], lz[air])
            carved = air[y[air] == tops - 1]
            if carved.size:
                column = slots[carved], lx[carved], lz[carved]
                cells = arena.columns("blocks", *column)
                arena.scatter(
                    "heightmap", *column,
                    values=column_tops(cells != Block.AIR),
                )
        if log:
            self._log_changes(
                BlockChanges(xs[sel], ys[sel], zs[sel], old, new)
            )
        return int(sel.size)

    def ground_and_loaded_bulk(
        self, xs: Array, ys: Array, zs: Array, max_scan: int = 12
    ) -> tuple[Array, Array]:
        """Vectorized downward ground scan for entity physics, and whether
        each position's chunk is loaded (the same column lookup).

        For each position: the top surface (``y + 1``) of the first solid
        block at or below the entity, scanning up to ``max_scan`` blocks
        down — the bulk equivalent of the scalar ``_ground_below``, NOT a
        heightmap-top query: entities under a roof must ground against the
        floor beneath them, not the structure above.  Positions with no
        solid block in range fall back to ``max(0, start - max_scan)``.
        """
        if max_scan < 1:
            raise ValueError(f"max_scan must be at least 1, got {max_scan}")
        xs = np.floor(np.asarray(xs, dtype=np.float64)).astype(np.int64)
        zs = np.floor(np.asarray(zs, dtype=np.float64)).astype(np.int64)
        start = np.floor(np.asarray(ys, dtype=np.float64)).astype(np.int64)
        np.minimum(start, WORLD_HEIGHT - 1, out=start)
        # [depth, entity]: each op runs one long inner loop per depth.
        scan_y = start - np.arange(max_scan)[:, None]
        flat, loaded = self._columns(xs, zs)
        cells = np.maximum(scan_y, 0)
        cells *= LAYER
        cells += flat
        solid = SOLID_LUT.take(self._arena.take("blocks", cells))
        solid &= scan_y >= 0
        solid &= loaded
        ground = start - max_scan
        np.maximum(ground, 0, out=ground)
        top = start + 1
        top -= solid.argmax(axis=0)
        np.copyto(ground, top, where=solid.any(axis=0))
        return ground.astype(np.float64), loaded

    def is_solid_at(self, x: int, y: int, z: int) -> bool:
        return is_solid(self.get_block(x, y, z))

    def neighbors6(self, x: int, y: int, z: int) -> Iterable[tuple]:
        """The six face-adjacent positions (unfiltered)."""
        return (
            (x + 1, y, z),
            (x - 1, y, z),
            (x, y + 1, z),
            (x, y - 1, z),
            (x, y, z + 1),
            (x, y, z - 1),
        )

    def fill(
        self, x0: int, y0: int, z0: int, x1: int, y1: int, z1: int,
        block_id: int, log: bool = False,
    ) -> int:
        """Fill an inclusive cuboid; returns the number of blocks written.

        Bulk construction helper used by the workload world builders, and
        :meth:`set_blocks_bulk` over :func:`cuboid_cells` in effect: every
        chunk under the cuboid is made resident, x then z (the order they
        load in is the order random ticks will visit them); y is clipped
        to the world; a cell changes when its block differs or its aux is
        non-zero, and each changed cell takes ``block_id`` with aux 0 (only
        changed cells are stored, so a section where nothing changes — the
        sky over a fill of air — is never written, and only the non-zero
        ``aux`` cells are cleared), dirties its chunk, raises its column's
        heightmap or, when it was the column top and is carved to AIR, has
        the column rescanned.
        With ``log`` the changes are logged as one segment in x, z, y
        order.  The work is one ``blocks`` and one ``aux`` slice per chunk,
        read ``[x, z, y]`` through a transposed view, so no per-cell index
        array is built (a logged fill keeps two bytes a cell for the log).
        """
        if x1 < x0 or y1 < y0 or z1 < z0:
            raise ValueError("fill cuboid corners must be ordered")
        ylo, yhi = max(y0, 0), min(y1, WORLD_HEIGHT - 1)
        if ylo > yhi:
            return 0
        ensured = self.ensure_chunks(
            (cx, cz)
            for cx in range(x0 >> 4, (x1 >> 4) + 1)
            for cz in range(z0 >> 4, (z1 >> 4) + 1)
        )
        block, span = np.uint8(block_id), slice(ylo, yhi + 1)
        if log:
            shape = (x1 - x0 + 1, z1 - z0 + 1, yhi - ylo + 1)
            logged, olds = np.zeros(shape, np.bool_), np.empty(shape, np.uint8)
        count = 0
        for chunk, _ in ensured:
            page, slot = chunk._page, chunk._slot
            bx, bz = chunk.cx << 4, chunk.cz << 4
            # The cuboid's x and z range inside this chunk, end exclusive.
            xa, xb = max(x0, bx), min(x1, bx + 15) + 1
            za, zb = max(z0, bz), min(z1, bz + 15) + 1
            lx, lz = slice(xa - bx, xb - bx), slice(za - bz, zb - bz)
            # [x, z, y] views of the y-major slab: whole columns, and the
            # cuboid's part of them.
            columns = page.blocks[slot, :, lx, lz].transpose(1, 2, 0)
            cells = columns[..., span]
            auxs = page.aux[slot, span, lx, lz].transpose(1, 2, 0)
            stale = auxs != 0
            changed = cells != block
            changed |= stale
            n = int(np.count_nonzero(changed))
            if not n:
                continue
            count += n
            if log:
                at_log = slice(xa - x0, xb - x0), slice(za - z0, zb - z0)
                logged[at_log], olds[at_log] = changed, cells
            np.copyto(cells, block, where=changed)
            if stale.any():
                auxs[stale] = 0
            page.dirty[slot] = True
            heights = page.heightmap[slot, lx, lz]
            if block != Block.AIR:
                # Each column's highest changed cell, + 1 (0: unchanged).
                tops = span.stop - changed[..., ::-1].argmax(axis=-1)
                tops[~changed.any(axis=-1)] = 0
                np.maximum(heights, tops, out=heights, casting="unsafe")
            else:
                # Carving air can lower a column top: rescan the columns
                # whose recorded top was a changed cell.
                below = heights.astype(np.int64) - 1 - ylo
                inside = below.view(np.uint64) < changed.shape[-1]
                carved = inside & np.take_along_axis(
                    changed, np.where(inside, below, 0)[..., None], axis=-1
                )[..., 0]
                if carved.any():
                    heights[carved] = column_tops(columns[carved] != Block.AIR)
        if log and count:
            xs, zs, ys = logged.nonzero()
            self._log_changes(BlockChanges(
                xs + x0, ys + ylo, zs + z0, olds[logged],
                np.full(count, block),
            ))
        return count
