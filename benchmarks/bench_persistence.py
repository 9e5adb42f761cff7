"""World persistence: region IO throughput and the autosave tick signature.

Four artifacts:

* region-file write/read throughput (chunks/s, and MB/s of the payload
  bytes the chunks serialize to; zlib round-trip verified bit-identical),
* the disk path's host cost on one prepared world: ``world_hash``,
  ``serialize_chunk`` over every chunk, and a region load (read, inflate
  and decode into a world), each a median with its 95 % interval and
  stamped with the host it ran on, for a later change to compare with;
  beside them, the warm-boot prepare of that world in a fresh process:
  how far it raises the process's peak resident set above its
  post-import level, and its wall seconds,
* the Exploration workload's tick-time distribution with persistence on —
  "Autosave" and "Chunk Load" must both be visible buckets, with the
  full-flush tick spike surfaced next to the p50/p99 tick durations,
* warm-boot vs cold-generation connect cost, using the campaign world
  cache under ``benchmarks/out/world-cache`` (covered by an actions cache
  key in CI, so repeat runs skip the pre-generation entirely).
"""

import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conftest import DURATION_S, OUT_DIR, median_interval, write_artifact

from repro.core.collectors import non_wait_shares
from repro.core.experiment import run_iteration
from repro.reporting.text import format_table
from repro.mlg.world import World
from repro.mlg.worldgen import TerrainGenerator
from repro.persistence.region import FORMAT_VERSION, serialize_chunk
from repro.persistence.store import RegionStore, world_hash
from repro.persistence.warmup import ensure_world_cache, prepare_world

#: Chunk square edge for the throughput micro-benchmark (256 chunks).
THROUGHPUT_EDGE = 16

WORLD_CACHE_ROOT = OUT_DIR / "world-cache"

#: The disk-path world: ``players`` prepared at seed 2 over radius 10, the
#: 441 chunks a campaign's warm boot prepares, saves and hashes.
DISK_PATH_WORLD = ("players", 2, 10)
DISK_PATH_REPS = 7

#: Prepares ``argv[1:4]`` (workload, seed, radius) into ``argv[4]`` and
#: prints what the prepare alone added to the process's peak RSS.  The
#: peak is ``VmHWM`` where Linux reports it: a spawned process's
#: ``ru_maxrss`` starts at its parent's high-water mark (Linux carries it
#: across fork and exec), which under pytest hides the prepare's.
PREPARE_PROBE = """
import json, resource, sys, time
from repro.persistence.warmup import prepare_world

def peak_kib():
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

name, seed, radius, out = sys.argv[1:]
base_kib = peak_kib()
start = time.perf_counter()
prepare_world(out, name, seed=int(seed), radius=int(radius))
wall_s = time.perf_counter() - start
rise_mib = (peak_kib() - base_kib) / 1024
print(json.dumps({"peak_rise_mib": rise_mib, "wall_s": wall_s}))
"""


def _bench_world(tmp_path):
    world = World(generator=TerrainGenerator(seed=42))
    for cx in range(THROUGHPUT_EDGE):
        for cz in range(THROUGHPUT_EDGE):
            world.ensure_chunk(cx, cz)
    return world


def test_region_io_throughput(benchmark, out_dir, tmp_path):
    world = _bench_world(tmp_path)
    chunks = list(world.loaded_chunks())
    raw_mb = sum(len(serialize_chunk(chunk)) for chunk in chunks) / 1e6

    def write_once():
        store = RegionStore(tmp_path / "store")
        store.save_chunks(chunks)
        return store

    store = benchmark.pedantic(write_once, rounds=1, iterations=1)
    t0 = time.perf_counter()
    write_once()
    write_s = time.perf_counter() - t0

    reader = RegionStore(tmp_path / "store")
    t0 = time.perf_counter()
    restored = World(loader=reader.load_chunk)
    for cx, cz in sorted(reader.chunk_positions()):
        restored.ensure_chunk(cx, cz)
    read_s = time.perf_counter() - t0
    assert world_hash(restored) == world_hash(world)  # lossless round trip

    rows = [
        ["chunks", f"{len(chunks)}"],
        ["payload bytes", f"{raw_mb:.1f} MB"],
        ["on disk (zlib)", f"{store.bytes_written / 1e6:.2f} MB"],
        [
            "write",
            f"{len(chunks) / write_s:,.0f} chunks/s "
            f"({raw_mb / write_s:.0f} MB/s of payload)",
        ],
        [
            "read+inflate+relight-free load",
            f"{len(chunks) / read_s:,.0f} chunks/s "
            f"({raw_mb / read_s:.0f} MB/s of payload)",
        ],
    ]
    text = format_table(["metric", "value"], rows)
    text += "\n\nround trip verified bit-identical via world_hash."
    write_artifact("persistence_region_throughput.txt", text)


def _median_ms(fn) -> tuple[float, float, float]:
    """Median and 95 % interval of ``DISK_PATH_REPS`` timed calls, ms."""
    fn()  # warm code paths and caches before timing
    times = []
    for _ in range(DISK_PATH_REPS):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return median_interval(times)


def _prepare_in_fresh_process(out: Path) -> dict:
    """``PREPARE_PROBE`` on ``DISK_PATH_WORLD``, in a new interpreter (a
    process's ``ru_maxrss`` only rises, so only a fresh one isolates the
    prepare's)."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )
    args = [str(v) for v in DISK_PATH_WORLD]
    done = subprocess.run(
        [sys.executable, "-c", PREPARE_PROBE, *args, str(out)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_disk_path_timing(benchmark, out_dir, tmp_path):
    """Host cost of the three disk-path passes on one prepared world, and
    the warm-boot prepare's peak-memory rise and wall seconds.

    Not gated: the numbers are host time, which the hostclock A/B judges;
    this records them with the host they were taken on.
    """
    name, seed, radius = DISK_PATH_WORLD
    report = prepare_world(tmp_path, name, seed=seed, radius=radius)
    store = RegionStore(tmp_path)
    positions = sorted(store.chunk_positions())
    world = World(loader=store.load_chunk)
    world.ensure_chunks(positions)
    chunks = sorted(world.loaded_chunks(), key=lambda c: (c.cx, c.cz))

    def serialize_all():
        for chunk in chunks:
            serialize_chunk(chunk)

    def load_all():
        reader = RegionStore(tmp_path)
        World(loader=reader.load_chunk).ensure_chunks(positions)

    passes = {
        "world_hash": lambda: world_hash(world),
        "serialize_chunk, every chunk": serialize_all,
        "region load (read, inflate, decode)": load_all,
    }
    timed = benchmark.pedantic(
        lambda: {label: _median_ms(fn) for label, fn in passes.items()},
        rounds=1, iterations=1,
    )
    payload = sum(len(serialize_chunk(chunk)) for chunk in chunks)
    prepare = _prepare_in_fresh_process(tmp_path / "fresh")
    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }
    rows = [
        ["world", f"{name}, seed {seed}, radius {radius}: "
                  f"{len(chunks)} chunks"],
        ["region format", f"{FORMAT_VERSION}"],
        ["payload bytes", f"{payload:,}"],
        ["region bytes written", f"{report.bytes_written:,}"],
    ] + [
        [f"{label}, median of {DISK_PATH_REPS}",
         f"{median:.2f} ms [{low:.2f}, {high:.2f}]"]
        for label, (median, low, high) in timed.items()
    ] + [
        ["prepare_world, fresh process: peak RSS rise",
         f"{prepare['peak_rise_mib']:.2f} MiB over post-import"],
        ["prepare_world, fresh process: wall",
         f"{prepare['wall_s'] * 1e3:.1f} ms"],
        ["host", ", ".join(f"{k} {v}" for k, v in host.items())],
    ]
    text = format_table(["metric", "value"], rows)
    text += "\n\nintervals: 95 % distribution-free interval of the median."
    write_artifact("persistence_disk_path.txt", text)
    write_artifact("persistence_disk_path.json", json.dumps({
        "world": {"workload": name, "seed": seed, "radius": radius,
                  "chunks": len(chunks)},
        "format": FORMAT_VERSION,
        "payload_bytes": payload,
        "bytes_written": report.bytes_written,
        "ms": {label: list(t) for label, t in timed.items()},
        "prepare_fresh_process": prepare,
        "host": host,
    }, indent=2))
    assert len(chunks) == (2 * radius + 1) ** 2
    assert world_hash(world) == int(report.world_hash, 16)


def test_autosave_spike_tick_distribution(benchmark, out_dir, tmp_path):
    result = benchmark.pedantic(
        run_iteration,
        args=("exploration", "vanilla", "das5-2core"),
        kwargs=dict(
            duration_s=DURATION_S,
            seed=7,
            world_dir=str(tmp_path / "world"),
            autosave_interval_s=10.0,
            autosave_flush_every=3,
            max_loaded_chunks=200,
        ),
        rounds=1,
        iterations=1,
    )
    shares = result.tick_distribution
    active = non_wait_shares(shares)
    world = result.telemetry["world"]
    durs = np.asarray(result.tick_durations_ms)
    rows = [
        [bucket, f"{100 * share:.2f}%"]
        for bucket, share in sorted(active.items(), key=lambda kv: -kv[1])
    ]
    text = format_table(["bucket", "share of non-wait tick time"], rows)
    text += "\n" + format_table(
        ["tick metric", "value"],
        [
            ["p50", f"{np.percentile(durs, 50):.2f} ms"],
            ["p99", f"{np.percentile(durs, 99):.2f} ms"],
            ["max (flush spike)", f"{durs.max():.2f} ms"],
            ["autosaves / full flushes",
             f"{world['autosaves']} / {world['full_flushes']}"],
            ["chunks saved/evicted/reloaded",
             f"{world['chunks_saved']} / {world['chunks_evicted']} / "
             f"{world['chunks_loaded_from_disk']}"],
            ["loaded chunks peak -> final",
             f"{world['peak_loaded_chunks']} -> "
             f"{world['final_loaded_chunks']}"],
        ],
    )
    text += (
        "\n\nexpected: Autosave and Chunk Load are visible buckets; the"
        " periodic full flush drives the max tick well past the p50; the"
        " loaded-chunk count plateaus under eviction."
    )
    write_artifact("persistence_autosave_spikes.txt", text)
    assert shares.get("Autosave", 0.0) > 0.0
    assert shares.get("Chunk Load", 0.0) > 0.0
    assert world["full_flushes"] >= 1
    assert durs.max() > 2.0 * np.percentile(durs, 50)


def test_warm_boot_vs_cold_generation(benchmark, out_dir, tmp_path):
    cache, _ = ensure_world_cache(WORLD_CACHE_ROOT, "control", 1.0, 11)

    def boots():
        cold = run_iteration(
            "control", "vanilla", "das5-2core",
            duration_s=3.0, seed=11, world_dir=str(tmp_path / "cold"),
        )
        warm = run_iteration(
            "control", "vanilla", "das5-2core",
            duration_s=3.0, seed=11, world_cache_dir=str(cache),
        )
        return cold, warm

    cold, warm = benchmark.pedantic(boots, rounds=1, iterations=1)
    cold_w, warm_w = cold.telemetry["world"], warm.telemetry["world"]
    rows = [
        ["initial world hash",
         f"{cold_w['initial_hash']} == {warm_w['initial_hash']}"],
        ["cold connect tick", f"{cold.tick_durations_ms[0]:.1f} ms"],
        ["warm connect tick", f"{warm.tick_durations_ms[0]:.1f} ms"],
        ["chunks from disk (warm)",
         f"{warm_w['chunks_loaded_from_disk']}"],
    ]
    text = format_table(["metric", "value"], rows)
    text += (
        "\n\nexpected: identical initial world hash; the warm boot's"
        " connect burst is several times cheaper than cold generation."
    )
    write_artifact("persistence_warm_boot.txt", text)
    assert warm_w["initial_hash"] == cold_w["initial_hash"]
    assert warm.tick_durations_ms[0] < cold.tick_durations_ms[0]
