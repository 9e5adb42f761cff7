"""World preparation: pre-generate a workload's world onto disk.

``prepare_world`` builds the workload's starting world once — its eagerly
constructed terrain plus the chunk square every player's connect-time view
load would otherwise generate — and snapshots it into a region-file store.
A campaign with ``warm_world_cache`` enabled then boots every iteration of
every server from the same on-disk seed: the connect burst becomes cheap
``CHUNK_LOAD`` work instead of expensive ``CHUNK_GEN`` work, campaigns run
faster, and every run starts from a bit-identical world (the round-trip is
lossless, verified by ``world.json``'s recorded hash).  A snapshot is named
after the terrain it holds (:func:`world_cache_key`), so workloads that
start from the same bare generated world share one.

This module sits one layer above the rest of the package (it imports the
workload registry); import it as ``repro.persistence.warmup``, not through
the package root, to keep ``repro.mlg.server → repro.persistence`` cycle
free.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass
from itertools import chain, product
from pathlib import Path

from repro.mlg.constants import DEFAULT_VIEW_DISTANCE
from repro.persistence.region import (
    FORMAT_VERSION,
    chunk_to_region,
    serialize_chunk,
)
from repro.persistence.store import (
    REGION_DIR,
    RegionStore,
    StoreScan,
    fold_entries,
    serialize_entry,
)

__all__ = [
    "PrepareReport",
    "WORLD_MANIFEST",
    "ensure_world_cache",
    "inspect_world",
    "prepare_world",
    "world_cache_key",
]

WORLD_MANIFEST = "world.json"

#: Default pre-generation radius, in chunks around the spawn chunk: the
#: default view distance plus a ring for view loads near the area's edge.
DEFAULT_PREPARE_RADIUS = DEFAULT_VIEW_DISTANCE + 2


def _snapshot_key(world, workload: str, scale: float, seed: int) -> str:
    generator_key = getattr(world.generator, "key", None)
    if world.loaded_chunk_count == 0 and generator_key is not None:
        return generator_key
    return f"{workload.lower()}-s{scale:g}-seed{seed}"


@functools.lru_cache(maxsize=None)
def world_cache_key(workload: str, scale: float, seed: int) -> str:
    """Directory name of the warm-cache snapshot ``workload`` at ``scale``
    boots from for ``seed``.

    Derived from the world ``create_world(seed)`` returns, never declared
    per workload: a world with no resident chunk is exactly its
    generator's output, so it is named after the generator's identity and
    every such workload, at every scale, shares it; a world the workload
    wrote terrain into is named after the workload, scale and seed.
    Cached: it builds that world, and every cell, status render and
    dataset load asks for it.
    """
    from repro.workloads import get_workload

    world = get_workload(workload, scale=scale).create_world(seed)
    return _snapshot_key(world, workload, scale, seed)


@dataclass(frozen=True)
class PrepareReport:
    """What one ``prepare_world`` run produced."""

    path: str
    key: str
    workload: str
    scale: float
    seed: int
    radius: int
    chunks: int
    bytes_written: int
    world_hash: str
    format: int = FORMAT_VERSION  # of the region files

    def to_dict(self) -> dict:
        return asdict(self)


def prepare_world(
    out_dir: str | Path,
    workload_name: str,
    scale: float = 1.0,
    seed: int = 0,
    radius: int = DEFAULT_PREPARE_RADIUS,
) -> PrepareReport:
    """Generate a workload's starting world and snapshot it to ``out_dir``.

    Builds the workload world for ``seed`` and snapshots its resident
    chunks plus the ``(2·radius+1)²`` chunk square around the spawn
    chunk, one region at a time: a region's chunks are made resident
    (the square's generated), saved with one
    :meth:`~repro.persistence.store.RegionStore.save_chunks` call (one
    write of its region file) and unloaded, so memory holds one region's
    chunks (at most 32×32), not the world's.  Records a ``world.json``
    manifest (parameters + content hash) that makes re-preparation
    idempotent and the cache verifiable.  The hash is
    :func:`~repro.persistence.store.fold_entries` over the entries the
    saves return — the bytes each chunk was deflated from — which is
    ``world_hash`` of the whole world, had it been held at once.

    Any previous snapshot in ``out_dir`` is removed first: region saves
    are read-modify-write, so merging into leftovers would let chunks
    outside the new footprint survive with stale bytes — and the warm
    cache serves *every* chunk it holds.
    """
    import shutil

    from repro.workloads import get_workload

    if radius < 0:
        raise ValueError(f"radius must be >= 0: {radius!r}")
    workload = get_workload(workload_name, scale=scale)
    world = workload.create_world(seed)
    key = _snapshot_key(world, workload_name, scale, seed)
    span = range(-radius, radius + 1)
    regions: dict[tuple[int, int], dict[tuple[int, int], None]] = {}
    for coords in chain(world.loaded_keys(), product(span, span)):
        regions.setdefault(chunk_to_region(*coords), {})[coords] = None
    out_dir = Path(out_dir)
    if (out_dir / REGION_DIR).exists():
        shutil.rmtree(out_dir / REGION_DIR)
    (out_dir / WORLD_MANIFEST).unlink(missing_ok=True)
    store = RegionStore(out_dir)
    entries = []
    for _, coords in sorted(regions.items()):
        chunks = [chunk for chunk, _ in world.ensure_chunks(coords)]
        entries += store.save_chunks(chunks)
        world.unload_chunks(coords)
    report = PrepareReport(
        path=str(out_dir),
        key=key,
        workload=workload_name.lower(),
        scale=float(scale),
        seed=int(seed),
        radius=int(radius),
        chunks=len(entries),
        bytes_written=store.bytes_written,
        world_hash=f"{fold_entries(entries):08x}",
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / WORLD_MANIFEST).write_text(
        json.dumps(report.to_dict(), indent=2)
    )
    return report


def read_world_manifest(root: str | Path) -> dict | None:
    path = Path(root) / WORLD_MANIFEST
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None


def _probe_chunk_matches(
    out_dir: Path, workload: str, scale: float, seed: int
) -> bool:
    """Canary check: sampled stored chunks must equal today's build.

    Parameters matching is not enough — a snapshot restored from an old
    CI cache (or surviving a worldgen change) has a self-consistent
    manifest but stale bytes.  The sample spans both terrain classes:
    the extremes of the footprint (pure generator output) and the
    spawn-adjacent chunks where workloads eagerly construct terrain
    (TNT cuboids, flood basins) — so drift in either the generator or
    the world-construction primitives is caught, for the cost of a few
    chunk builds.
    """
    from repro.workloads import get_workload

    store = RegionStore(out_dir)
    positions = store.chunk_positions()
    if not positions:
        return False
    sample = {min(positions), max(positions)} | (
        {(0, 0), (1, 1), (2, 2), (3, 3)} & positions
    )
    world = get_workload(workload, scale=scale).create_world(seed)
    for cx, cz in sorted(sample):
        stored = store.load_chunk(cx, cz)
        if stored is None:
            return False
        fresh = world.ensure_chunk(cx, cz)
        if serialize_chunk(stored) != serialize_chunk(fresh):
            return False
    return True


def ensure_world_cache(
    cache_root: str | Path,
    workload: str,
    scale: float,
    seed: int,
    radius: int = DEFAULT_PREPARE_RADIUS,
) -> tuple[Path, bool]:
    """Prepare ``<cache_root>/<key>`` unless a matching snapshot exists;
    return its path and whether it was prepared.

    Matching means the recorded manifest's key, seed and radius equal the
    request, its region format is this build's (a snapshot of another
    format is re-prepared, never read), *and* probe chunks of
    ``workload``'s own fresh build equal the stored bytes — a stale,
    foreign, or generator-drifted directory is re-prepared, so a restored
    CI cache from another commit can never poison a campaign, every
    workload sharing a snapshot checks the bytes it boots from, and none
    re-prepares another's.
    """
    key = world_cache_key(workload, scale, seed)
    out_dir = Path(cache_root) / key
    manifest = read_world_manifest(out_dir) or {}
    fields = ("key", "seed", "radius", "format")
    recorded = [manifest.get(name) for name in fields]
    wanted = [key, seed, radius, FORMAT_VERSION]
    if recorded == wanted and _probe_chunk_matches(
        out_dir, workload, scale, seed
    ):
        return out_dir, False
    prepare_world(out_dir, workload, scale=scale, seed=seed, radius=radius)
    return out_dir, True


def inspect_world(root: str | Path) -> dict:
    """Everything ``repro world inspect`` reports about a world directory.

    Walks the region files (recovering per-entry damage reports), decodes
    every intact chunk, region by region, into the content hash — one
    chunk held at a time — and includes the ``world.json`` manifest when
    present so a cache entry can be checked against what it claims to
    contain.
    """
    if not Path(root).is_dir():
        raise FileNotFoundError(f"{root} is not a world directory")
    store = RegionStore(root)
    scan: StoreScan = store.scan()
    # Hash only what actually decodes: a payload that passes its CRC but
    # fails deserialization must surface as damage, never as a zero-
    # filled chunk baked into the content hash.
    entries = []
    positions = sorted(
        store.chunk_positions(), key=lambda c: (chunk_to_region(*c), c)
    )
    for cx, cz in positions:
        chunk = store.load_chunk(cx, cz)
        if chunk is not None:
            entries.append(serialize_entry(chunk)[1])
    # Fold in decode-stage failures (CRC-valid but undeserializable) —
    # deduplicated, since a re-read region re-records entry damage.
    seen = {(e.cx, e.cz, e.reason) for e in scan.corrupt_entries}
    scan.corrupt_entries.extend(
        entry
        for entry in store.corrupt
        if (entry.cx, entry.cz, entry.reason) not in seen
    )
    return {
        "path": str(Path(root)),
        "regions": scan.regions,
        "chunks": scan.chunks,
        "total_bytes": scan.total_bytes,
        "corrupt_regions": list(scan.corrupt_regions),
        "corrupt_entries": [
            {"cx": entry.cx, "cz": entry.cz, "reason": entry.reason}
            for entry in scan.corrupt_entries
        ],
        "world_hash": f"{fold_entries(entries):08x}",
        "manifest": read_world_manifest(root),
    }
