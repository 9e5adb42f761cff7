"""The on-disk chunk store: a directory of region files plus bookkeeping.

Layout, under the store's root (a *world directory*)::

    <root>/
      region/r.{rx}.{rz}.msr    one region file per touched 32×32 area
      world.json                optional manifest (written by ``prepare``)

The store is the only component that touches the filesystem; the
:class:`~repro.persistence.lifecycle.ChunkLifecycle` decides *when* chunks
move, the store decides *how*.  Parsed region payload tables are cached in
memory (compressed payloads only, a few KB per chunk), so the streaming
reload path costs one inflate per chunk rather than one file parse.

Corruption policy mirrors :func:`repro.persistence.region.read_region`:
a damaged region or entry is recorded on ``corrupt`` and treated as
absent — the world falls back to regeneration — never silently zeroed.
"""

from __future__ import annotations

import functools
import struct
import zlib
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.mlg.world import Chunk, World
from repro.persistence.region import (
    REGION_CHUNKS,
    CorruptEntry,
    RegionCorruptError,
    chunk_to_region,
    compress_payload,
    deserialize_chunk,
    read_region,
    region_filename,
    serialize_chunk,
    write_region,
)

__all__ = [
    "HashEntry",
    "RegionStore",
    "StoreScan",
    "fold_entries",
    "serialize_entry",
    "world_hash",
]

REGION_DIR = "region"

#: What the content hash needs of one chunk: ``(cx, cz, crc32(payload),
#: len(payload))``, the payload being :func:`serialize_chunk`'s bytes.
HashEntry = tuple[int, int, int, int]


def serialize_entry(chunk: Chunk) -> tuple[bytes, HashEntry]:
    """``chunk``'s payload and its :data:`HashEntry`, from one
    serialization."""
    raw = serialize_chunk(chunk)
    return raw, (chunk.cx, chunk.cz, zlib.crc32(raw), len(raw))


@dataclass
class StoreScan:
    """What a full walk of the store found (``repro world inspect``)."""

    regions: int = 0
    chunks: int = 0
    total_bytes: int = 0
    corrupt_entries: list[CorruptEntry] = field(default_factory=list)
    corrupt_regions: list[str] = field(default_factory=list)


class RegionStore:
    """Reads and writes one world directory's region files."""

    #: Parsed region tables kept in memory.  The cache is LRU-bounded so
    #: a long streaming run (thousands of frontier chunks) does not
    #: quietly retain every compressed payload it ever touched while the
    #: world itself dutifully plateaus under eviction.
    CACHE_REGIONS = 8

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.region_dir = self.root / REGION_DIR
        #: Cumulative compressed bytes moved, for the disk-IO metrics.
        self.bytes_read = 0
        self.bytes_written = 0
        #: Damaged entries/regions encountered while loading.
        self.corrupt: list[CorruptEntry] = []
        #: (rx, rz) -> {(cx, cz): compressed payload}; LRU, newest last.
        self._regions: OrderedDict[
            tuple[int, int], dict[tuple[int, int], bytes]
        ] = OrderedDict()

    # -- region access -------------------------------------------------------

    def region_path(self, rx: int, rz: int) -> Path:
        return self.region_dir / region_filename(rx, rz)

    def _region(self, rx: int, rz: int) -> dict[tuple[int, int], bytes]:
        """The region's payload table, reading it from disk on first use."""
        table = self._regions.get((rx, rz))
        if table is not None:
            self._regions.move_to_end((rx, rz))
            return table
        path = self.region_path(rx, rz)
        table = {}
        if path.exists():
            try:
                table, corrupt = read_region(path, rx, rz)
            except RegionCorruptError as exc:
                # The whole file is unusable: every chunk it held is gone.
                self.corrupt.append(
                    CorruptEntry(
                        rx * REGION_CHUNKS, rz * REGION_CHUNKS, str(exc)
                    )
                )
                table = {}
            else:
                self.corrupt.extend(corrupt)
        self._cache_put(rx, rz, table)
        return table

    def _cache_put(
        self, rx: int, rz: int, table: dict[tuple[int, int], bytes]
    ) -> None:
        self._regions[(rx, rz)] = table
        self._regions.move_to_end((rx, rz))
        while len(self._regions) > self.CACHE_REGIONS:
            self._regions.popitem(last=False)

    def _region_coords_on_disk(self) -> list[tuple[int, int]]:
        if not self.region_dir.is_dir():
            return []
        coords = []
        for path in sorted(self.region_dir.glob("r.*.msr")):
            parts = path.name.split(".")
            if len(parts) != 4:
                continue
            try:
                coords.append((int(parts[1]), int(parts[2])))
            except ValueError:
                continue
        return coords

    # -- chunk IO ------------------------------------------------------------

    def has_chunk(self, cx: int, cz: int) -> bool:
        return (cx, cz) in self._region(*chunk_to_region(cx, cz))

    def chunk_positions(self) -> set[tuple[int, int]]:
        """Every chunk recoverable from disk (parses all region headers)."""
        positions: set[tuple[int, int]] = set()
        for rx, rz in self._region_coords_on_disk():
            positions.update(self._region(rx, rz))
        return positions

    def load_chunk(
        self, cx: int, cz: int, create: Callable[[int, int], Chunk] = Chunk
    ) -> Chunk | None:
        """Deserialize one chunk, or ``None`` when absent or damaged.

        The payload is inflated and checked first and then decoded into
        the chunk ``create(cx, cz)`` returns: free-standing by default; a
        world passes its arena's ``create``, so the bytes land in the
        slot they will live in.  A payload that fails claims nothing.
        """
        comp = self._region(*chunk_to_region(cx, cz)).get((cx, cz))
        if comp is None:
            return None
        try:
            raw = zlib.decompress(comp)
            chunk = deserialize_chunk(cx, cz, raw, create)
        except (zlib.error, ValueError) as exc:
            self.corrupt.append(CorruptEntry(cx, cz, f"payload: {exc}"))
            return None
        self.bytes_read += len(comp)
        return chunk

    def save_chunks(self, chunks: list[Chunk]) -> list[HashEntry]:
        """Write chunks back to their regions; returns each chunk's
        :data:`HashEntry`, taken from the bytes it deflated (the bytes
        written accrue on :attr:`bytes_written`).

        Groups by region and does one atomic read-modify-write per
        touched region file, so a kill mid-save leaves every region
        either fully old or fully new.
        """
        by_region: dict[tuple[int, int], list[Chunk]] = {}
        for chunk in chunks:
            by_region.setdefault(chunk_to_region(chunk.cx, chunk.cz), []).append(
                chunk
            )
        entries = []
        for (rx, rz), group in sorted(by_region.items()):
            table = dict(self._region(rx, rz))
            for chunk in group:
                raw, entry = serialize_entry(chunk)
                entries.append(entry)
                table[(chunk.cx, chunk.cz)] = compress_payload(raw)
            self.bytes_written += write_region(
                self.region_path(rx, rz), rx, rz, table
            )
            self._cache_put(rx, rz, table)
        return entries

    # -- inspection ----------------------------------------------------------

    def scan(self) -> StoreScan:
        """Walk every region file, recovering counts and damage reports.

        Parsed payload tables land in the store's cache, so a following
        ``load_chunk``/``chunk_positions`` pass (e.g. hashing the world
        after an inspection) does not re-read the files.
        """
        report = StoreScan()
        for rx, rz in self._region_coords_on_disk():
            path = self.region_path(rx, rz)
            report.total_bytes += path.stat().st_size
            try:
                table, corrupt = read_region(path, rx, rz)
            except RegionCorruptError as exc:
                report.corrupt_regions.append(f"{path.name}: {exc}")
                self._cache_put(rx, rz, {})
                continue
            report.regions += 1
            report.chunks += len(table)
            report.corrupt_entries.extend(corrupt)
            self._cache_put(rx, rz, table)
        return report


#: Zeros to run a CRC over, a slice at a time.
_ZEROS = memoryview(bytes(1 << 16))


def _crc32_of_zeros(n: int, crc: int = 0) -> int:
    """``zlib.crc32(bytes(n), crc)``, without allocating the zeros."""
    while n > len(_ZEROS):
        crc = zlib.crc32(_ZEROS, crc)
        n -= len(_ZEROS)
    return zlib.crc32(_ZEROS[:n], crc)


#: ``crc32(bytes(n))``: a payload's length takes a handful of values.
_zeros_crc = functools.lru_cache(maxsize=64)(_crc32_of_zeros)


def fold_entries(entries: Iterable[HashEntry]) -> int:
    """The content hash of the chunks ``entries`` describe, given in any
    order: the CRC-32 chain over each chunk's coordinates (``<qq``) and
    payload, in ``(cx, cz)`` order, built from the per-chunk CRCs alone.

    CRC-32 is linear, so a payload ``B`` of ``n`` bytes continues a
    chain at ``c`` as ``crc32(B, c) == crc32(B) ^ crc32(bytes(n), c) ^
    crc32(bytes(n))``: a chunk can be hashed when it is saved and
    dropped, and the chain put together after the last region.
    """
    digest = 0
    for cx, cz, crc, n in sorted(entries):
        digest = zlib.crc32(struct.pack("<qq", cx, cz), digest)
        digest = crc ^ _crc32_of_zeros(n, digest) ^ _zeros_crc(n)
    return digest


def world_hash(world: World) -> int:
    """Order-independent CRC32 of the world's persisted state.

    Covers every loaded chunk's coordinates and the payload a save
    deflates (:func:`serialize_chunk`, read off the slot), so a
    warm-booted world and a cold-generated one can be compared for
    bit-identity in O(world) without writing to disk.  It is
    :func:`fold_entries` over one :data:`HashEntry` per chunk, so it
    equals the ``world_hash`` a region-at-a-time save records (the
    entries :meth:`RegionStore.save_chunks` returns) for the same chunks.
    """
    return fold_entries(
        serialize_entry(chunk)[1] for chunk in world.loaded_chunks()
    )
