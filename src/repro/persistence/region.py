"""Region-file format: 32×32 chunks per file, numpy-native and crash-safe.

A *region* is the unit of world persistence — the same granularity real
Minecraft-like servers use (Anvil ``r.{rx}.{rz}.mca``).  Ours is a single
flat file::

    +-----------------------------+
    | header: magic, version,     |  8 bytes  (``<4sBBH``)
    |         flags, chunk count  |
    +-----------------------------+
    | entry table: one 16-byte    |  ``count`` × ``<BBHIII``
    |   record per stored chunk   |  (lx, lz, reserved, offset,
    |                             |   compressed length, CRC32)
    +-----------------------------+
    | zlib-compressed chunk       |
    |   payloads, concatenated    |
    +-----------------------------+

A chunk payload (format 2) holds what its slot holds, in the slot's
order, as Anvil stores a chunk: its non-empty 16-high sections::

    blocks mask   1 byte     bit k set: section k (layers 16k..16k+15)
    blocks        4096 bytes per set bit, [y, lx, lz] uint8, bottom up
    aux mask      1 byte
    aux           4096 bytes per set bit
    heightmap     512 bytes  [lx, lz] little-endian int16

A section is absent when it is all zero (the sky, and all of ``aux`` in
most chunks), so saving, hashing and loading a chunk copy neither its sky
nor a transpose of it.  Light is derived state, absent from the payload.
A file of another version (format 1 stored whole ``[x, z, y]`` arrays) is
refused whole with :class:`RegionCorruptError` naming its version.

Crash safety is two-layered: whole files are written via temp-file +
``os.replace`` (a killed save leaves either the old region or the new one,
never a torn one), and every entry carries its compressed length and CRC so
a region truncated or corrupted by outside forces is *detected* on read —
intact chunks are recovered, damaged ones are reported, and nothing is
silently zero-filled.
"""

from __future__ import annotations

import re
import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.mlg.chunk_arena import SECTION_HEIGHT
from repro.mlg.constants import CHUNK_SIZE
from repro.mlg.world import Chunk

__all__ = [
    "CorruptEntry",
    "FORMAT_VERSION",
    "REGION_CHUNKS",
    "RegionCorruptError",
    "chunk_to_region",
    "deserialize_chunk",
    "read_region",
    "region_filename",
    "serialize_chunk",
    "write_region",
]

#: Region edge length, in chunks (32×32 chunks per region file).
REGION_CHUNKS = 32

MAGIC = b"MSRG"
FORMAT_VERSION = 2

_HEADER = struct.Struct("<4sBBH")
_ENTRY = struct.Struct("<BBHIII")

#: Payload fields stored by section, in payload order.
_FIELDS = ("blocks", "aux")
#: Bytes of one section of one field: one slab page.
_SECTION_BYTES = SECTION_HEIGHT * CHUNK_SIZE * CHUNK_SIZE
_HEIGHTMAP_BYTES = CHUNK_SIZE * CHUNK_SIZE * 2
#: The runs of set bits of each mask, as ``(lo, hi)`` section ranges:
#: a run of present sections is one contiguous part of slot and payload.
_RUNS = [
    [(m.start(), m.end()) for m in re.finditer("1+", f"{mask:08b}"[::-1])]
    for mask in range(256)
]

#: zlib level: 6 is the stock speed/ratio trade-off real servers ship.
_ZLIB_LEVEL = 6


class RegionCorruptError(Exception):
    """The region file is unreadable as a whole (bad magic/version/header)."""


@dataclass(frozen=True)
class CorruptEntry:
    """One damaged chunk entry detected while reading a region."""

    cx: int
    cz: int
    reason: str


def chunk_to_region(cx: int, cz: int) -> tuple[int, int]:
    """Region coordinates containing chunk ``(cx, cz)`` (floor division)."""
    return cx >> 5, cz >> 5


def region_filename(rx: int, rz: int) -> str:
    return f"r.{rx}.{rz}.msr"


# -- chunk payloads -----------------------------------------------------------


def serialize_chunk(chunk: Chunk) -> bytes:
    """The persisted bytes of one chunk, read straight off its slot: for
    each of ``blocks`` and ``aux`` a mask byte (bit ``k`` set: section
    ``k`` holds a non-zero cell) and the present sections, then the
    heightmap.  Presence is read from the voxels, never from the
    heightmap.  Light is absent: it is derived state, recomputed on load
    the same way as after generation."""
    parts = []
    for name in _FIELDS:
        sections = chunk.sections(name)
        # packbits sets the bit of each section whose largest word is not 0.
        mask = np.packbits(sections.view("<u8").max(axis=1), bitorder="little")
        parts.append(mask)
        parts.extend(sections[lo:hi] for lo, hi in _RUNS[mask[0]])
    parts.append(chunk.heightmap.astype("<i2", copy=False))
    return b"".join(parts)


def compress_payload(raw: bytes) -> bytes:
    """A region entry's payload: ``raw`` (:func:`serialize_chunk`'s
    bytes), deflated."""
    return zlib.compress(raw, _ZLIB_LEVEL)


def deserialize_chunk(
    cx: int, cz: int, raw: bytes, create: Callable[[int, int], Chunk] = Chunk
) -> Chunk:
    """Rebuild a chunk from its persisted bytes (bit-identical arrays).

    The payload's length must be what its masks say, else
    :class:`ValueError` is raised before ``create(cx, cz)`` is called.
    The present sections are copied onto the chunk that call returns —
    all-air and free-standing by default, a fresh arena slot when the
    caller is a world — which arrives all zero, so an absent section is
    a page never written.
    """
    at, present = 0, []
    for name in _FIELDS:
        mask = raw[at] if at < len(raw) else 0  # cut: refused below
        present.append((name, at + 1, _RUNS[mask]))
        at += 1 + _SECTION_BYTES * mask.bit_count()
    if len(raw) != at + _HEIGHTMAP_BYTES:
        raise ValueError(
            f"chunk payload is {len(raw)} bytes, not the "
            f"{at + _HEIGHTMAP_BYTES} its section masks say"
        )
    chunk = create(cx, cz)
    data = np.frombuffer(raw, np.uint8)
    for name, start, runs in present:
        sections = chunk.sections(name)
        for lo, hi in runs:
            end = start + _SECTION_BYTES * (hi - lo)
            sections[lo:hi] = data[start:end].reshape(hi - lo, -1)
            start = end
    chunk.heightmap[:] = data[at:].view("<i2").reshape(CHUNK_SIZE, CHUNK_SIZE)
    return chunk


# -- whole-region IO ----------------------------------------------------------


def write_region(
    path: str | Path, rx: int, rz: int, payloads: dict[tuple[int, int], bytes]
) -> int:
    """Atomically write one region file; returns the bytes written.

    ``payloads`` maps *chunk* coordinates to already-compressed chunk
    payloads; every chunk must belong to region ``(rx, rz)``.
    """
    path = Path(path)
    entries = []
    blob = bytearray()
    offset = _HEADER.size + _ENTRY.size * len(payloads)
    for (cx, cz), comp in sorted(payloads.items()):
        if chunk_to_region(cx, cz) != (rx, rz):
            raise ValueError(
                f"chunk ({cx}, {cz}) does not belong to region ({rx}, {rz})"
            )
        entries.append(
            _ENTRY.pack(
                cx & (REGION_CHUNKS - 1),
                cz & (REGION_CHUNKS - 1),
                0,
                offset,
                len(comp),
                zlib.crc32(comp),
            )
        )
        blob.extend(comp)
        offset += len(comp)
    data = (
        _HEADER.pack(MAGIC, FORMAT_VERSION, 0, len(payloads))
        + b"".join(entries)
        + bytes(blob)
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
    return len(data)


def read_region(
    path: str | Path, rx: int, rz: int
) -> tuple[dict[tuple[int, int], bytes], list[CorruptEntry]]:
    """Read one region file's compressed payloads, recovering what it can.

    Returns ``(payloads, corrupt)``: payloads keyed by chunk coordinates
    for every entry whose bytes are intact (length in bounds, CRC
    matches), and a :class:`CorruptEntry` per damaged one — the behaviour
    the crash-safety tests pin: a truncated file loses only the chunks
    whose payloads the truncation ate.

    Raises :class:`RegionCorruptError` when the file is not a region file
    at all (bad magic/version) or its header/entry table is truncated.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise RegionCorruptError(f"{path}: truncated header")
    magic, version, _flags, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise RegionCorruptError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise RegionCorruptError(f"{path}: unsupported version {version}")
    table_end = _HEADER.size + _ENTRY.size * count
    if len(data) < table_end:
        raise RegionCorruptError(f"{path}: truncated entry table")
    payloads: dict[tuple[int, int], bytes] = {}
    corrupt: list[CorruptEntry] = []
    for i in range(count):
        lx, lz, _reserved, offset, length, crc = _ENTRY.unpack_from(
            data, _HEADER.size + _ENTRY.size * i
        )
        cx = (rx * REGION_CHUNKS) + lx
        cz = (rz * REGION_CHUNKS) + lz
        if offset + length > len(data):
            corrupt.append(CorruptEntry(cx, cz, "payload truncated"))
            continue
        comp = data[offset : offset + length]
        if zlib.crc32(comp) != crc:
            corrupt.append(CorruptEntry(cx, cz, "crc mismatch"))
            continue
        payloads[(cx, cz)] = comp
    return payloads, corrupt
