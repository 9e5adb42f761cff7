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

Chunk payloads are the raw bytes of the persisted arrays, each in x, z,
y order — blocks (uint8), then aux (uint8) only when it is not all zero,
then the heightmap (little-endian int16) — and a payload's length says
which form it is.  A load decodes them into the chunk's arrays, wherever
those live: a private page, or an arena slot the caller claimed, which
arrives all zero.  So a load writes only the sections under the chunk's
top — a voxel array's layers up to its highest non-zero cell, in whole
sections, never the sky above — and a payload without ``aux`` writes
nothing onto those pages.  Files written when every payload held ``aux``
still load; a checkout from before the short form reports a short
payload as a named corrupt entry and never zero-fills it.  Light is
derived state, absent from the payload; the caller relights what it
loaded, exactly as after generation.

Crash safety is two-layered: whole files are written via temp-file +
``os.replace`` (a killed save leaves either the old region or the new one,
never a torn one), and every entry carries its compressed length and CRC so
a region truncated or corrupted by outside forces is *detected* on read —
intact chunks are recovered, damaged ones are reported, and nothing is
silently zero-filled.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.mlg.chunk_arena import used_rows
from repro.mlg.constants import CHUNK_SIZE, WORLD_HEIGHT
from repro.mlg.world import Chunk

__all__ = [
    "CorruptEntry",
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
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sBBH")
_ENTRY = struct.Struct("<BBHIII")

#: Raw (uncompressed) payload size of a chunk whose ``aux`` is stored.
_BLOCK_BYTES = CHUNK_SIZE * CHUNK_SIZE * WORLD_HEIGHT
_HEIGHTMAP_BYTES = CHUNK_SIZE * CHUNK_SIZE * 2
RAW_CHUNK_BYTES = 2 * _BLOCK_BYTES + _HEIGHTMAP_BYTES

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
    """Raw persisted bytes of one chunk: blocks, aux, heightmap.

    The ``aux`` section is left out when it is all zero (most chunks'),
    which makes the payload ``_BLOCK_BYTES`` shorter.  Light arrays are
    deliberately absent: they are derived state, recomputed on load the
    same way they are computed after generation.
    """
    aux = chunk.aux.tobytes() if chunk.aux.any() else b""
    return (
        chunk.blocks.tobytes()
        + aux
        + chunk.heightmap.astype("<i2", copy=False).tobytes()
    )


def deserialize_chunk(
    cx: int, cz: int, raw: bytes, create: Callable[[int, int], Chunk] = Chunk
) -> Chunk:
    """Rebuild a chunk from its persisted bytes (bit-identical arrays).

    A payload of ``RAW_CHUNK_BYTES`` holds ``aux``; one ``_BLOCK_BYTES``
    shorter does not, and leaves the chunk's all zero.  The bytes are
    decoded straight into the chunk ``create(cx, cz)`` returns — all-air
    and free-standing by default, a fresh arena slot when the caller is a
    world — and ``create`` is not called for a payload of another length.
    """
    short = RAW_CHUNK_BYTES - _BLOCK_BYTES
    if len(raw) not in (RAW_CHUNK_BYTES, short):
        raise ValueError(
            f"chunk payload is {len(raw)} bytes, expected "
            f"{RAW_CHUNK_BYTES} or {short}"
        )
    shape = (CHUNK_SIZE, CHUNK_SIZE, WORLD_HEIGHT)
    chunk = create(cx, cz)
    fields = ("blocks", "aux") if len(raw) == RAW_CHUNK_BYTES else ("blocks",)
    for k, name in enumerate(fields):
        values = np.frombuffer(
            raw, dtype=np.uint8, count=_BLOCK_BYTES, offset=k * _BLOCK_BYTES
        ).reshape(shape)
        # The chunk's arrays arrive all zero: the layers above the
        # payload's highest non-zero cell are left as they are.  (Scanned,
        # not read off the heightmap: a payload is taken as it stands.)
        rows = used_rows(values.transpose(2, 0, 1))
        getattr(chunk, name)[..., :rows] = values[..., :rows]
    chunk.heightmap[:] = np.frombuffer(
        raw, dtype="<i2", count=CHUNK_SIZE * CHUNK_SIZE,
        offset=len(raw) - _HEIGHTMAP_BYTES,
    ).reshape((CHUNK_SIZE, CHUNK_SIZE))
    return chunk


def compress_payload(raw: bytes) -> bytes:
    return zlib.compress(raw, _ZLIB_LEVEL)


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
