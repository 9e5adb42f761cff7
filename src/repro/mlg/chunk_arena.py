"""Slab storage for terrain state (§2.3): one array per field, one row
per loaded chunk.

:class:`ChunkArena` keeps ``blocks``/``aux``/``blocklight`` as ``[slot,
lx, lz, y]`` slabs (plus ``heightmap`` and ``skylit`` as ``[slot, lx, lz]``,
``dirty[slot]`` and ``glows[slot]``), so a query that spans many chunks is
one fancy index instead of a Python loop over chunk objects.  Skylight is
not a slab: a column is lit from the top down to its highest opaque block,
so ``skylit`` holds how many cells that is, an all-zero slot reads dark,
and :attr:`Chunk.skylight` derives the voxels.  :class:`Chunk` is a handle
over one slot: its array attributes are views resolved on access.  A
free-standing ``Chunk(cx, cz)`` (region IO, tests) owns a private one-slot
page; :meth:`ChunkArena.adopt` copies it into a slot, and
:meth:`ChunkArena.release` *detaches* the handle back onto a private copy,
so a stale reference keeps reading the chunk it named, not whichever one
reuses the slot (the ``Entity`` reap pattern).

Whole-chunk work (generation, initial lighting) addresses chunks a
:class:`ChunkStrip` at a time: up to ``STRIP_CHUNKS`` handles whose fields
read and write as one ``[n, ...]`` array.

Slabs grow by whole pages and never move, so growth neither copies nor
touches a live slot.  Released slots are zeroed and reused lowest-first,
which keeps the touched part of a page dense under eviction churn.
"""

from __future__ import annotations

import heapq
import mmap
from math import prod
from operator import attrgetter

import numpy as np

from repro.mlg.blocks import Block
from repro.mlg.constants import CHUNK_SIZE, MAX_LIGHT, WORLD_HEIGHT

__all__ = [
    "Chunk", "ChunkArena", "ChunkStrip", "column_tops", "pack_keys", "strips",
]

_VOXELS = ((CHUNK_SIZE, CHUNK_SIZE, WORLD_HEIGHT), np.uint8)
_VOXEL_CELLS = prod(_VOXELS[0])
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


def _lazy_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Zeros on a private anonymous mapping of their own: resident only
    where written, 4 KiB at a time, and returned to the kernel whole.
    ``np.zeros`` promises neither at slab size — numpy advises huge pages
    for large blocks (a first write then faults in 2 MiB of each field),
    and malloc may hand back recycled heap that it has to memset.
    POSIX only (``MAP_PRIVATE``/``MAP_ANONYMOUS``); the mapping counts
    against ``RLIMIT_AS`` and strict overcommit in full from the start."""
    size = prod(shape) * np.dtype(dtype).itemsize
    buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buffer, dtype).reshape(shape)


class _Page:
    """``n`` slots of every terrain field, zero-initialised."""

    __slots__ = ("base", *_FIELDS)

    def __init__(self, n: int, base: int = -1, zeros=np.zeros) -> None:
        #: Arena slot of row 0 (-1: the private page of a free chunk).
        self.base = base
        for name, (shape, dtype) in _FIELDS.items():
            setattr(self, name, zeros((n, *shape), dtype))


def _copy_slot(src: _Page, i: int, dst: _Page, j: int) -> None:
    for name in _FIELDS:
        getattr(dst, name)[j] = getattr(src, name)[i]


def _slot_view(name: str) -> property:
    field = attrgetter(name)
    return property(lambda self: field(self._page)[self._slot])


class Chunk:
    """A 16×16 column of blocks with light and auxiliary state.

    Arrays are indexed ``[local_x, local_z, y]``.  ``aux`` stores per-block
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

    blocks = _slot_view("blocks")
    aux = _slot_view("aux")
    blocklight = _slot_view("blocklight")
    heightmap = _slot_view("heightmap")
    skylit = _slot_view("skylit")

    @property
    def skylight(self) -> np.ndarray:
        """Sky light per voxel, derived from ``skylit`` (read-only: light
        is written through the :class:`~repro.mlg.lighting.LightEngine`)."""
        lit = np.arange(WORLD_HEIGHT, 0, -1) <= self.skylit[:, :, None]
        voxels = lit * np.uint8(MAX_LIGHT)
        voxels.flags.writeable = False
        return voxels

    @property
    def dirty(self) -> bool:
        return bool(self._page.dirty[self._slot])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._page.dirty[self._slot] = value

    @property
    def nbytes(self) -> int:
        return self.NBYTES

    def recompute_heightmap(self) -> None:
        """Rebuild the heightmap from the block array (vectorized)."""
        self.heightmap[:, :] = column_tops(self.blocks != Block.AIR)

    def update_height_at(self, lx: int, lz: int) -> None:
        """Recompute the heightmap for a single column."""
        nz = np.flatnonzero(self.blocks[lx, lz])
        self.heightmap[lx, lz] = int(nz[-1]) + 1 if nz.size else 0


def column_tops(filled: np.ndarray) -> np.ndarray:
    """Highest set index + 1 along the last (``y``) axis of a boolean
    array, 0 where a column has none set: the heightmap of ``blocks !=
    AIR``, the skylight cut-off of an opacity mask.  Columns are read eight
    cells at a time, so the last axis must be contiguous and a multiple of
    eight long (``WORLD_HEIGHT`` is)."""
    words = filled.view("<u8")
    top_word = words.shape[-1] - 1 - (words[..., ::-1] != 0).argmax(axis=-1)
    word = np.take_along_axis(words, top_word[..., None], axis=-1)[..., 0]
    # A word of bools is a sum of 256**k: its float exponent is 8k + 1 for
    # the highest k (exactly: only bit 0 can fall off the 53-bit mantissa,
    # and it rounds down).
    top_cell = (np.frexp(word.astype(np.float64))[1] + 7) // 8
    return np.where(word != 0, 8 * top_word + top_cell, 0).astype(np.int16)


#: Most chunks addressed by one index.  A whole-field temporary of a strip
#: is ``STRIP_CHUNKS`` x 32 KiB = 1 MiB, so building a view's 289 chunks
#: peaks no higher than building 32.
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
        """Field ``name`` of every chunk, ``[n, ...]``, for reading: a
        view of the slab where the strip is a slice of it, else a copy."""
        if self._run:
            page, _, run = self._groups[0]
            return getattr(page, name)[run]
        shape, dtype = _FIELDS[name]
        out = np.empty((len(self.chunks), *shape), dtype)
        for page, rows, slots in self._groups:
            out[rows] = getattr(page, name)[slots]
        return out

    def write(self, name: str, values: np.ndarray) -> None:
        """Store ``values[i]`` as field ``name`` of ``chunks[i]``."""
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
        self._pages = [_Page(self._page_slots, 0, _lazy_zeros)]
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
                self._pages.append(_Page(self._page_slots, slot, _lazy_zeros))
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

    def release(self, cx: int, cz: int) -> Chunk | None:
        """Unload ``(cx, cz)``: detach its handle onto a private copy of
        its state, then zero and free the slot."""
        chunk = self.handles.pop((cx, cz), None)
        if chunk is None:
            return None
        page, slot = chunk._page, chunk._slot
        chunk._page, chunk._slot = _Page(1), 0
        for name in _FIELDS:
            field = getattr(page, name)
            # A row never written reads the shared zero page; copying or
            # zeroing it would fault its pages in for nothing.
            if field[slot].any():
                getattr(chunk._page, name)[0] = field[slot]
                field[slot] = 0
        heapq.heappush(self._free, page.base + slot)
        self._cache = None
        return chunk

    # -- vectorised addressing -----------------------------------------------

    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slots in iteration order; sorted packed keys and their slots."""
        if self._cache is None:
            order = np.array(
                [c._page.base + c._slot for c in self.handles.values()],
                dtype=np.int64,
            )
            coords = np.array(list(self.handles), dtype=np.int64)
            keys = pack_keys(*coords.reshape(-1, 2).T)
            by_key = np.argsort(keys)
            self._cache = order, keys[by_key], order[by_key]
        return self._cache

    def order(self) -> np.ndarray:
        """Slots of the loaded chunks, in iteration order."""
        return self._index()[0]

    def locate(
        self, cxs: np.ndarray, czs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, loaded)`` of each chunk coordinate pair.  Where it is
        not loaded its slot is some claimed one (slot 0 in an empty
        arena): a gather stays in range, and ``loaded`` masks what it
        read."""
        _, keys, slots = self._index()
        wanted = pack_keys(cxs, czs)
        if not keys.size:
            return np.zeros_like(wanted), np.zeros(wanted.shape, np.bool_)
        at = keys.searchsorted(wanted)
        np.minimum(at, keys.size - 1, out=at)
        return slots[at], keys[at] == wanted

    @staticmethod
    def voxel_index(slots, lx, lz) -> np.ndarray:
        """Flat index of voxel ``[slot, lx, lz, 0]`` of every voxel field:
        add ``y`` and :meth:`take`."""
        # In place: at a few hundred elements a temporary's allocation
        # costs as much as the arithmetic.
        flat = slots * CHUNK_SIZE
        flat += lx
        flat *= CHUNK_SIZE
        flat += lz
        flat *= WORLD_HEIGHT
        return flat

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
