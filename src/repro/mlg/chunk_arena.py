"""Slab storage for terrain state (§2.3): one array per field, one row
per loaded chunk.

:class:`ChunkArena` keeps ``blocks``/``aux``/``blocklight`` as ``[slot, y,
lx, lz]`` slabs (plus ``heightmap`` and ``skylit`` as ``[slot, lx, lz]``,
``dirty[slot]`` and ``glows[slot]``), so a query that spans many chunks is
one fancy index instead of a Python loop over chunk objects.  A voxel slot
is ``y``-major, the way Minecraft-like servers store a chunk column: 16
layers of it, one *section*, are one 4 KiB memory page, so a section that
is all zero (the open sky over terrain) is a page never written and never
resident.  Skylight is not a slab: a column is lit from the top down to
its highest opaque block, so ``skylit`` holds how many cells that is, an
all-zero slot reads dark, and :attr:`Chunk.skylight` derives the voxels.
:class:`Chunk` is a handle over one slot: its array attributes are views
resolved on access, the voxel ones transposed to ``[lx, lz, y]``.  A
free-standing ``Chunk(cx, cz)`` (what a world-cache probe or ``repro world
inspect`` decodes; a world's loads decode into their slots) owns a private
one-slot page, and :meth:`ChunkArena.adopt` copies it into a slot.
:meth:`ChunkArena.release` frees the slot and leaves the handle on no
page, so a stale reference raises on its next read instead of reading
whichever chunk reuses the slot.

Whole-chunk work (generation, initial lighting) addresses chunks a
:class:`ChunkStrip` at a time: up to ``STRIP_CHUNKS`` handles whose fields
read and write as one ``[n, ...]`` array.  Whatever fills a fresh slot
whole writes no section of the sky: generation writes the sections under
each chunk's top, a region load and :meth:`ChunkArena.adopt` those that
hold a non-zero cell (:meth:`Chunk.sections`).

Slabs grow by whole pages and never move, so growth neither copies nor
touches a live slot.  Released slots are handed back to the kernel
(``MADV_DONTNEED``: they read as zeros again) and reused lowest-first,
which keeps the touched part of a page dense under eviction churn.
"""

from __future__ import annotations

import heapq
import mmap
import sys
from collections.abc import Iterable
from math import prod
from operator import attrgetter

import numpy as np

from repro.mlg.constants import CHUNK_SIZE, MAX_LIGHT, WORLD_HEIGHT

__all__ = [
    "Chunk", "ChunkArena", "ChunkStrip", "LAYER", "SECTION_HEIGHT",
    "column_tops", "pack_keys", "strips",
]

#: Cells of one ``y`` layer of a chunk: the ``y`` stride of a voxel slot.
LAYER = CHUNK_SIZE * CHUNK_SIZE
_LAYER_OFFSETS = np.arange(WORLD_HEIGHT) * LAYER
#: Layers per section; one section of one voxel field is one 4 KiB page.
SECTION_HEIGHT = 16
_SECTIONS = WORLD_HEIGHT // SECTION_HEIGHT
_VOXELS = ((WORLD_HEIGHT, CHUNK_SIZE, CHUNK_SIZE), np.uint8)
_VOXEL_CELLS = prod(_VOXELS[0])
_VOXEL_FIELDS = ("blocks", "aux", "blocklight")
#: Whether a released slot's voxel pages can be returned whole: Linux
#: refills a dropped private anonymous page with zeros (other systems may
#: keep its contents), and each slot must start on a page boundary.
_DISCARD = sys.platform == "linux" and _VOXEL_CELLS % mmap.PAGESIZE == 0
_COLUMNS = ((CHUNK_SIZE, CHUNK_SIZE), np.int16)
#: Per-slot shape and dtype of every terrain field.
_FIELDS = {
    "blocks": _VOXELS,
    "aux": _VOXELS,
    "blocklight": _VOXELS,
    "heightmap": _COLUMNS,
    #: Sky-lit cells of each column, counted from the top of the world.
    "skylit": _COLUMNS,
    "dirty": ((), np.bool_),
    #: Whether ``blocklight`` may be non-zero (the light engine's flag).
    "glows": ((), np.bool_),
}


def _lazy_zeros(shape: tuple[int, ...], dtype) -> mmap.mmap:
    """A private anonymous mapping to hold ``shape`` of ``dtype``: zeros,
    resident only where written, 4 KiB at a time, and returned to the
    kernel whole.
    ``np.zeros`` promises neither at slab size — numpy advises huge pages
    for large blocks (a first write then faults in 2 MiB of each field),
    and malloc may hand back recycled heap that it has to memset.  The
    mapping advises against huge pages for the same reason: where the
    kernel's transparent huge pages are ``always`` on, it would otherwise
    back each first write with 2 MiB, sky sections included.
    POSIX only (``MAP_PRIVATE``/``MAP_ANONYMOUS``); the mapping counts
    against ``RLIMIT_AS`` and strict overcommit in full from the start."""
    size = prod(shape) * np.dtype(dtype).itemsize
    buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    return buffer


class _Page:
    """``n`` slots of every terrain field, zero-initialised: on heap
    (the private page of a free chunk) or, ``lazy``, on mappings of their
    own (an arena page)."""

    __slots__ = ("base", "_maps", *_FIELDS)

    def __init__(self, n: int, base: int = -1, lazy: bool = False) -> None:
        #: Arena slot of row 0 (-1: the private page of a free chunk).
        self.base = base
        self._maps = {}
        for name, (shape, dtype) in _FIELDS.items():
            shape = (n, *shape)
            if lazy:
                buffer = self._maps[name] = _lazy_zeros(shape, dtype)
                field = np.frombuffer(buffer, dtype).reshape(shape)
            else:
                field = np.zeros(shape, dtype)
            setattr(self, name, field)

    def clear(self, lo: int, hi: int) -> None:
        """Zero slots ``lo`` to ``hi - 1`` of every field without faulting
        in a voxel page that holds none of their data."""
        for name in _FIELDS:
            field = getattr(self, name)
            if name not in _VOXEL_FIELDS:
                field[lo:hi] = 0
            elif _DISCARD:
                # The mapping is private and anonymous: a dropped page
                # reads back as zeros and is resident again only when
                # written.  (A voxel slot is uint8: its size in bytes is
                # its cell count.)
                self._maps[name].madvise(
                    mmap.MADV_DONTNEED,
                    lo * _VOXEL_CELLS,
                    (hi - lo) * _VOXEL_CELLS,
                )
            else:
                for row in field[lo:hi]:
                    # A row never written reads the shared zero page;
                    # zeroing it would fault its pages in for nothing.
                    if row.any():
                        row[...] = 0


def _copy_slot(src: _Page, i: int, dst: _Page, j: int) -> None:
    """Copy slot ``i`` of ``src`` into the all-zero slot ``j`` of ``dst``,
    a voxel field only in the sections that hold data."""
    for name in _FIELDS:
        values = getattr(src, name)[i]
        if name == "blocklight" and not src.glows[i]:
            continue  # all zero: nothing lit it (the light engine's flag)
        if name in _VOXEL_FIELDS:
            rows = values.reshape(_SECTIONS, -1)
            used = rows.view("<u8").any(axis=1)
            getattr(dst, name)[j].reshape(_SECTIONS, -1)[used] = rows[used]
        else:
            getattr(dst, name)[j] = values


def _slot_view(name: str) -> property:
    field = attrgetter(name)
    return property(lambda self: field(self._page)[self._slot])


def _voxel_view(name: str) -> property:
    field = attrgetter(name)
    # A slot is [y, lx, lz]; a chunk reads and writes it as [lx, lz, y].
    return property(
        lambda self: field(self._page)[self._slot].transpose(1, 2, 0)
    )


class Chunk:
    """A 16×16 column of blocks with light and auxiliary state.

    Arrays are indexed ``[local_x, local_z, y]`` (the voxel ones are
    transposed views of the ``y``-major slot).  ``aux`` stores per-block
    metadata (crop growth stage, repeater delay, redstone power, fluid
    level).  ``heightmap[x, z]`` is the y of the highest non-air block plus
    one (0 for an empty column).
    """

    __slots__ = ("cx", "cz", "_page", "_slot")

    #: In-memory size of one chunk's state arrays.
    NBYTES = (4 * WORLD_HEIGHT + 2) * CHUNK_SIZE * CHUNK_SIZE

    def __init__(
        self, cx: int, cz: int, _page: _Page | None = None, _slot: int = 0
    ) -> None:
        self.cx = cx
        self.cz = cz
        self._page = _Page(1) if _page is None else _page
        self._slot = _slot

    blocks = _voxel_view("blocks")
    aux = _voxel_view("aux")
    blocklight = _voxel_view("blocklight")
    heightmap = _slot_view("heightmap")
    skylit = _slot_view("skylit")

    @property
    def skylight(  # test-only: src reads skylit, never this 3-D view
        self,
    ) -> np.ndarray:
        """Sky light per voxel, derived from ``skylit`` (read-only: light
        is written through the :class:`~repro.mlg.lighting.LightEngine`)."""
        lit = np.arange(WORLD_HEIGHT, 0, -1) <= self.skylit[:, :, None]
        voxels = lit * np.uint8(MAX_LIGHT)
        voxels.flags.writeable = False
        return voxels

    def sections(self, name: str) -> np.ndarray:
        """Voxel field ``name`` as the slot holds it: one row per section,
        bottom up, of its 16 ``[y, lx, lz]`` layers (one page)."""
        return getattr(self._page, name)[self._slot].reshape(_SECTIONS, -1)

    @property
    def dirty(self) -> bool:
        return bool(self._page.dirty[self._slot])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._page.dirty[self._slot] = value

    def update_height_at(self, lx: int, lz: int) -> None:
        """Recompute the heightmap for a single column."""
        nz = np.flatnonzero(self.blocks[lx, lz])
        self.heightmap[lx, lz] = int(nz[-1]) + 1 if nz.size else 0


def column_tops(filled: np.ndarray) -> np.ndarray:
    """Highest set index + 1 along the last (``y``) axis of a boolean
    array, 0 where a column has none set: the heightmap of ``blocks !=
    AIR``, the skylight cut-off of an opacity mask.  Columns are read eight
    cells at a time, so the last axis must be a multiple of eight long
    (``WORLD_HEIGHT`` is), and it is copied first unless it is contiguous
    (a chunk's ``blocks`` view is not; the bulk paths pass contiguous
    columns)."""
    words = np.ascontiguousarray(filled).view("<u8")
    top_word = words.shape[-1] - 1 - (words[..., ::-1] != 0).argmax(axis=-1)
    word = np.take_along_axis(words, top_word[..., None], axis=-1)[..., 0]
    # A word of bools is a sum of 256**k: its float exponent is 8k + 1 for
    # the highest k (exactly: only bit 0 can fall off the 53-bit mantissa,
    # and it rounds down).
    top_cell = (np.frexp(word.astype(np.float64))[1] + 7) // 8
    return np.where(word != 0, 8 * top_word + top_cell, 0).astype(np.int16)


#: Most chunks addressed by one index.  A whole-field temporary of a strip
#: is ``STRIP_CHUNKS`` x 32 KiB = 1 MiB whatever the terrain (the slab
#: skips all-air sections, a temporary does not), so building a view's 289
#: chunks peaks no higher than building 32.
STRIP_CHUNKS = 32


class ChunkStrip:
    """A few chunk handles addressed together: a field reads and writes as
    one ``[n, ...]`` array, row ``i`` being ``chunks[i]``, with one fancy
    index per page under them — one in all for chunks of one arena page,
    whichever slots they hold; a free-standing chunk is a page of its own.
    Chunks holding one ascending run of slots of one page (what a batch
    of claims from a fresh or densely freed arena gets) are a slice.
    """

    __slots__ = ("chunks", "_groups", "_run")

    def __init__(self, chunks: list[Chunk]) -> None:
        self.chunks = chunks
        pages: dict[int, tuple[_Page, list[int], list[int]]] = {}
        for row, chunk in enumerate(chunks):
            group = pages.setdefault(id(chunk._page), (chunk._page, [], []))
            group[1].append(row)
            group[2].append(chunk._slot)
        self._groups = list(pages.values())
        #: Whether one slice of one page is the whole strip.
        self._run = False
        if len(self._groups) == 1:
            page, _, slots = self._groups[0]
            run = range(slots[0], slots[0] + len(slots))
            if slots == list(run):
                self._run = True
                self._groups = [(page, ..., slice(run.start, run.stop))]

    def lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """World ``(xs[n, 16, 1], zs[n, 1, 16])`` of the strip's columns,
        which broadcast to ``[n, 16, 16]``."""
        corner = CHUNK_SIZE * np.array(
            [(c.cx, c.cz) for c in self.chunks], np.int64
        ).reshape(-1, 2, 1, 1)
        local = np.arange(CHUNK_SIZE)
        return corner[:, 0] + local[:, None], corner[:, 1] + local

    def read(self, name: str) -> np.ndarray:
        """Field ``name`` of every chunk, ``[n, ...]`` (a voxel field
        ``[n, y, lx, lz]``, the slab's order), for reading: a view of the
        slab where the strip is a slice of it, else a copy."""
        if self._run:
            page, _, run = self._groups[0]
            return getattr(page, name)[run]
        shape, dtype = _FIELDS[name]
        out = np.empty((len(self.chunks), *shape), dtype)
        for page, rows, slots in self._groups:
            out[rows] = getattr(page, name)[slots]
        return out

    def write(
        self, name: str, values: np.ndarray, tops: np.ndarray | None = None
    ) -> None:
        """Store ``values[i]`` as field ``name`` of ``chunks[i]``.  With
        ``tops``, a voxel field of all-zero slots: only the layers below
        ``tops[i]`` are written (those above must be zero in ``values``),
        so an all-air section stays a page never touched."""
        if tops is not None:
            field = attrgetter(name)
            for chunk, row, top in zip(self.chunks, values, tops.tolist()):
                field(chunk._page)[chunk._slot, :top] = row[:top]
            return
        for page, rows, slots in self._groups:
            getattr(page, name)[slots] = values[rows]


def strips(chunks: list[Chunk]):
    """``chunks`` as consecutive :class:`ChunkStrip` s of bounded size."""
    for start in range(0, len(chunks), STRIP_CHUNKS):
        yield ChunkStrip(chunks[start : start + STRIP_CHUNKS])


class ChunkArena:
    """Paged slabs plus the ``(cx, cz) → handle`` index of one world."""

    #: Slots per page: 97 MiB of address space in seven mappings for every
    #: world, however small, resident only as written.  A world that fits
    #: gathers from one page; the benchmark's peak over 4 s of seed 1 is
    #: 289 slots (floor_control, entities_farm, terrain_writes), 324
    #: (wire_farm) and 441 (campaign_matrix), so only tests that shrink
    #: the page reach the paged path of ``_per_page``.
    PAGE_SLOTS = 1024

    def __init__(self) -> None:
        #: Loaded chunks in insertion order (the order growth pairs RNG
        #: draws with chunks, so it must survive unload/reload as a dict's).
        self.handles: dict[tuple[int, int], Chunk] = {}
        self._page_slots = self.PAGE_SLOTS
        self._pages = [_Page(self._page_slots, 0, lazy=True)]
        self._free: list[int] = []  # heap: released slots, all-zero
        self._fresh = 0  # lowest never-claimed slot
        self._cache: tuple[np.ndarray, ...] | None = None  # see _index

    # -- slots ---------------------------------------------------------------

    def _claim(self) -> tuple[_Page, int]:
        self._cache = None
        if self._free:
            slot = heapq.heappop(self._free)
        else:
            slot = self._fresh
            self._fresh += 1
            if slot == len(self._pages) * self._page_slots:
                self._pages.append(_Page(self._page_slots, slot, lazy=True))
        page, local = divmod(slot, self._page_slots)
        return self._pages[page], local

    def create(self, cx: int, cz: int) -> Chunk:
        """A new all-air chunk at ``(cx, cz)`` (which must not be loaded)."""
        chunk = self.handles[(cx, cz)] = Chunk(cx, cz, *self._claim())
        return chunk

    def adopt(self, chunk: Chunk) -> Chunk:
        """Copy a free-standing ``chunk`` into a slot and attach it there,
        as the newest chunk; one loaded at its coordinates is released."""
        if chunk._page.base >= 0:
            raise ValueError(f"chunk ({chunk.cx}, {chunk.cz}) is attached")
        self.release(chunk.cx, chunk.cz)
        page, slot = self._claim()
        _copy_slot(chunk._page, 0, page, slot)
        chunk._page, chunk._slot = page, slot
        self.handles[(chunk.cx, chunk.cz)] = chunk
        return chunk

    def release(self, cx: int, cz: int) -> None:
        """Unload ``(cx, cz)`` (a no-op when it is not loaded): clear and
        free its slot, and leave its handle on no page, so that reading
        it raises."""
        self.release_chunks(((cx, cz),))

    def release_chunks(self, coords: Iterable[tuple[int, int]]) -> None:
        """:meth:`release` each of ``coords``, clearing each contiguous run
        of their slots with one call per field."""
        slots = []
        for key in coords:
            chunk = self.handles.pop(key, None)
            if chunk is not None:
                slots.append(chunk._page.base + chunk._slot)
                chunk._page = None
        if not slots:
            return
        slots.sort()
        lo = slots[0]
        for prev, slot in zip(slots, [*slots[1:], None]):
            if slot == prev + 1 and slot % self._page_slots:
                continue  # the run goes on
            page, start = divmod(lo, self._page_slots)
            self._pages[page].clear(start, start + prev + 1 - lo)
            lo = slot
        for slot in slots:
            heapq.heappush(self._free, slot)
        self._cache = None

    # -- vectorised addressing -----------------------------------------------

    def _index(self) -> tuple[np.ndarray, ...]:
        """Slots and ``[n, 2]`` coordinates in iteration order; sorted
        packed keys and their slots."""
        if self._cache is None:
            order = np.array(
                [c._page.base + c._slot for c in self.handles.values()],
                dtype=np.int64,
            )
            coords = np.array(list(self.handles), np.int64).reshape(-1, 2)
            keys = pack_keys(*coords.T)
            by_key = np.argsort(keys)
            self._cache = order, coords, keys[by_key], order[by_key]
        return self._cache

    def order(self) -> np.ndarray:
        """Slots of the loaded chunks, in iteration order."""
        return self._index()[0]

    def coords(self) -> np.ndarray:
        """``[n, 2]`` ``(cx, cz)`` of the loaded chunks, in iteration
        order (shared: not to be written)."""
        return self._index()[1]

    def locate(
        self, cxs: np.ndarray, czs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, loaded)`` of each chunk coordinate pair.  Where it is
        not loaded its slot is some claimed one (slot 0 in an empty
        arena): a gather stays in range, and ``loaded`` masks what it
        read."""
        *_, keys, slots = self._index()
        wanted = pack_keys(cxs, czs)
        if not keys.size:
            return np.zeros_like(wanted), np.zeros(wanted.shape, np.bool_)
        at = keys.searchsorted(wanted)
        np.minimum(at, keys.size - 1, out=at)
        return slots[at], keys[at] == wanted

    @staticmethod
    def voxel_index(slots, lx, lz) -> np.ndarray:
        """Flat index of voxel ``[slot, 0, lx, lz]`` of every voxel field:
        add ``y * LAYER`` and :meth:`take`."""
        # In place: at a few hundred elements a temporary's allocation
        # costs as much as the arithmetic.
        flat = slots * WORLD_HEIGHT
        flat *= CHUNK_SIZE
        flat += lx
        flat *= CHUNK_SIZE
        flat += lz
        return flat

    def columns(self, field: str, slots, lx, lz) -> np.ndarray:
        """Whole columns ``[k, y]`` of voxel field ``field`` (slots must
        be claimed), contiguous in ``y`` as :func:`column_tops` reads."""
        flat = self.voxel_index(slots, lx, lz)
        return self.take(field, flat[:, None] + _LAYER_OFFSETS)

    def take(self, field: str, flat: np.ndarray) -> np.ndarray:
        """Voxel field ``field`` at flat indices from :meth:`voxel_index`
        (slots must be claimed): one ``take`` per page under them."""
        if len(self._pages) == 1:
            return getattr(self._pages[0], field).take(flat)
        page_of, local = np.divmod(flat, self._page_slots * _VOXEL_CELLS)
        out = np.empty(flat.shape, _VOXELS[1])
        for p in np.flatnonzero(np.bincount(page_of.ravel())).tolist():
            where = page_of == p
            out[where] = getattr(self._pages[p], field).take(local[where])
        return out

    def _per_page(self, slots: np.ndarray, index: tuple):
        """Split a fancy index by page: ``(page, where, page-local index)``;
        ``where`` is ``...`` when one page serves the whole index."""
        if len(self._pages) == 1 or not slots.size:
            yield self._pages[0], ..., (slots, *index)
            return
        slots, *index = np.broadcast_arrays(slots, *index)
        page_of, local = np.divmod(slots, self._page_slots)
        for p in np.flatnonzero(np.bincount(page_of.ravel())).tolist():
            where = page_of == p
            at = (local[where], *(i[where] for i in index))
            yield self._pages[p], where, at

    def gather(self, field: str, slots: np.ndarray, *index) -> np.ndarray:
        """``field[slots, *index]`` across pages (slots must be claimed)."""
        out = None
        for page, where, at in self._per_page(slots, index):
            part = getattr(page, field)[at]
            if where is ...:
                return part
            if out is None:
                out = np.empty(where.shape, part.dtype)
            out[where] = part
        return out

    def scatter(self, field: str, slots, *index, values, ufunc=None) -> None:
        """``field[slots, *index] = values`` across pages, or with a
        ``ufunc``, ``ufunc.at(field, (slots, *index), values)``."""
        for page, where, at in self._per_page(slots, index):
            if ufunc is None:
                getattr(page, field)[at] = values[where]
            else:
                ufunc.at(getattr(page, field), at, values[where])



def pack_keys(cxs: np.ndarray, czs: np.ndarray) -> np.ndarray:
    """One sortable int64 key per chunk coordinate pair."""
    return cxs * (1 << 32) + (czs & 0xFFFFFFFF)
