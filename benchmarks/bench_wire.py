"""Wire-path cost: codec throughput and loopback TCP round trips.

Three artifacts:

* raw codec throughput — encode and decode rates (messages/s, MB/s)
  over a traffic mix matching what ``WireServer`` actually flushes
  (state frames weighted toward entity moves, per-client deliveries,
  client actions, and batched entity moves),
* kernel against oracle — the codec's array kernels and layout tables
  timed against the scalar loops they replaced (kept verbatim in
  ``tests/mlg/wire_oracle.py``) on the two shapes a farm flush is made
  of, a 172-move entity batch and a run of 83 ``entity_velocity`` state
  frames: paired, interleaved, reported as a ratio with its interval,
  and held to a floor of 3x on batch encode and on batch decode,
* a real loopback campaign cell (``serve_cell`` + ``run_clients`` over
  127.0.0.1 sockets) reporting client-measured response times and the
  bytes the server pushed.

All land under ``benchmarks/out/``.  What the wire path costs a whole
tick, paired against a parent commit, is hostclock's ``wire_farm``.

The decoder side of the boundary is not timed here but belongs to the
same contract: a peer's bytes either decode or raise
``wirecodec.ProtocolError``, and no frame longer than
``wirecodec.MAX_FRAME_BYTES`` is ever buffered
(``tests/net/test_protocol_errors.py``).
"""

import gc
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
from conftest import median_interval, write_artifact

from repro.campaign.store import JobStore
from repro.reporting.text import format_table
from repro.mlg import wirecodec as wc
from repro.mlg.protocol import PACKET_SIZES, ActionKind, PacketCategory, PlayerAction
from repro.net import run_clients, serve_and_join

#: Messages per codec rep — large enough that interpreter startup noise
#: washes out, small enough to keep the bench interactive.
CODEC_MESSAGES = 20_000
CODEC_REPS = 3

#: Loopback cell shape (simulated seconds; wall time tracks it 1:1
#: because the serve loop paces ticks against the tick budget).
RTT_BOTS = 4
RTT_DURATION_S = 2.0

#: The two shapes one farm flush is made of (per client, seed 1): the
#: batched entity moves and the run of velocity syncs a quarter as long
#: as both clients' moves together.
FLUSH_BATCH_MOVES = 172
FLUSH_STATE_RUN = 83
#: Paired timed blocks per kernel-vs-oracle case, and calls per block.
KERNEL_PAIRS = 30
KERNEL_CALLS_PER_BLOCK = 20
#: What the array kernels must stay ahead of the scalar loops by.
KERNEL_SPEEDUP_FLOOR = 3.0

#: State-frame traffic mix, roughly the per-tick composition the server
#: flushes for a small bot fleet (entity moves dominate).
STATE_MIX = (
    (PacketCategory.ENTITY_MOVE, 12),
    (PacketCategory.ENTITY_VELOCITY, 4),
    (PacketCategory.BLOCK_CHANGE, 2),
    (PacketCategory.SOUND_EFFECT, 1),
    (PacketCategory.CHAT, 1),
    (PacketCategory.KEEPALIVE, 1),
    (PacketCategory.TIME_UPDATE, 1),
)


def _traffic(rng) -> bytes:
    """One encode pass over the mixed traffic; returns the wire bytes."""
    buf = bytearray()
    categories = [c for c, weight in STATE_MIX for _ in range(weight)]
    for i in range(CODEC_MESSAGES):
        pick = i % (len(categories) + 2)
        if pick < len(categories):
            category = categories[pick]
            schema = wc.CATEGORY_SCHEMAS[category]
            payload = tuple(
                int(rng.integers(0, 128)) if tag in ("uv", "u8")
                else int(rng.integers(-64, 64)) if tag == "sv"
                else float(np.float32(rng.uniform(-100, 100)))
                if tag == "f32"
                else float(rng.uniform(-100, 100))
                for tag in schema
            )
            if i % 2:
                buf += wc.encode_state(category, payload)
            else:
                buf += wc.encode_delivery(
                    category, payload, int(rng.integers(0, 1 << 20))
                )
        elif pick == len(categories):
            action = PlayerAction(
                ActionKind.MOVE,
                int(rng.integers(1, 64)),
                (
                    float(rng.uniform(0, 32)),
                    float(rng.uniform(1, 8)),
                    float(rng.uniform(0, 32)),
                ),
            )
            buf += wc.encode_action(action, int(rng.integers(0, 1 << 20)))
        else:
            moves = tuple(
                (eid, int(rng.integers(-8, 9)), 0, int(rng.integers(-8, 9)))
                for eid in range(1, 17)
            )
            buf += wc.encode_entity_batch(moves)
    return bytes(buf)


def test_codec_throughput(benchmark, out_dir):
    """Encode/decode rates over the server's flush-traffic mix."""

    def reps():
        encode_s, decode_s, wire = [], [], b""
        for rep in range(CODEC_REPS):
            rng = np.random.default_rng(2022 + rep)
            t0 = time.perf_counter()
            wire = _traffic(rng)
            encode_s.append(time.perf_counter() - t0)
            decoder = wc.FrameDecoder()
            t0 = time.perf_counter()
            decoded = decoder.feed(wire)
            decode_s.append(time.perf_counter() - t0)
            assert len(decoded) == CODEC_MESSAGES
            assert decoder.pending_bytes == 0
        return min(encode_s), min(decode_s), wire

    encode_s, decode_s, wire = benchmark.pedantic(
        reps, rounds=1, iterations=1
    )
    mb = len(wire) / 1e6
    rows = [
        ["messages per rep", f"{CODEC_MESSAGES}"],
        ["wire bytes per rep", f"{mb:.2f} MB"],
        ["mean frame", f"{len(wire) / CODEC_MESSAGES:.1f} B"],
        ["encode (min of reps)",
         f"{CODEC_MESSAGES / encode_s / 1e3:.0f} kmsg/s"
         f"  ({mb / encode_s:.1f} MB/s)"],
        ["decode (min of reps)",
         f"{CODEC_MESSAGES / decode_s / 1e3:.0f} kmsg/s"
         f"  ({mb / decode_s:.1f} MB/s)"],
    ]
    text = format_table(["metric", "value"], rows)
    text += (
        "\n\npure-python codec; the size contract (frames padded to the"
        " Table 8 model) means throughput in MB/s overstates useful"
        " payload by design."
    )
    write_artifact("bench_wire_codec.txt", text)


def _load_oracle():
    """The scalar codec the kernels replaced (the parity tests' oracle)."""
    path = Path(__file__).parents[1] / "tests" / "mlg" / "wire_oracle.py"
    spec = importlib.util.spec_from_file_location("wire_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _paired_speedups(oracle_call, kernel_call) -> list[float]:
    """Oracle time over kernel time, once per pair of timed blocks; the
    sides alternate within the pairs, so drift in the host's speed taxes
    both evenly."""

    def block_s(call) -> float:
        start = time.perf_counter()
        for _ in range(KERNEL_CALLS_PER_BLOCK):
            call()
        return time.perf_counter() - start

    for call in (oracle_call, kernel_call):  # warm both before timing
        block_s(call)
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for pair in range(KERNEL_PAIRS):
            if pair % 2:
                kernel_s = block_s(kernel_call)
                oracle_s = block_s(oracle_call)
            else:
                oracle_s = block_s(oracle_call)
                kernel_s = block_s(kernel_call)
            ratios.append(oracle_s / kernel_s)
    finally:
        gc.enable()
    return ratios


def test_kernels_against_oracle(benchmark, out_dir):
    """The array kernels and layout tables against the scalar loops they
    replaced, on the shapes of one farm flush."""
    oracle = _load_oracle()
    rows_array = np.empty((FLUSH_BATCH_MOVES, 4), dtype=np.int64)
    rows_array[:, 0] = np.arange(FLUSH_BATCH_MOVES)
    rows_array[:, 1:] = (1, 0, -1)
    moves = tuple(map(tuple, rows_array.tolist()))
    batch = oracle.encode_entity_batch(moves)
    velocity = PacketCategory.ENTITY_VELOCITY
    payloads = [(i, 2, 0, -2) for i in range(FLUSH_STATE_RUN)]

    def oracle_state_run():
        buf = bytearray()
        for payload in payloads:
            buf += oracle.encode_state(velocity, payload)
        return buf

    def kernel_state_run():
        buf = bytearray()
        for payload in payloads:
            wc.append_state(buf, velocity, payload)
        return buf

    # Same bytes and same moves, or the ratios below compare nothing.
    assert wc.encode_entity_batch(rows_array) == batch
    assert wc.decode_frame(batch)[0].moves == moves
    assert oracle.decode_entity_batch_frame(batch) == moves
    assert kernel_state_run() == oracle_state_run()

    cases = {
        f"batch encode ({FLUSH_BATCH_MOVES} moves)": (
            lambda: oracle.encode_entity_batch(moves),
            lambda: wc.encode_entity_batch(rows_array),
        ),
        f"batch decode ({FLUSH_BATCH_MOVES} moves)": (
            lambda: oracle.decode_entity_batch_frame(batch),
            lambda: wc.decode_frame(batch),
        ),
        f"state run encode ({FLUSH_STATE_RUN} frames)": (
            oracle_state_run,
            kernel_state_run,
        ),
    }

    def measure():
        return {
            name: median_interval(_paired_speedups(*calls))
            for name, calls in cases.items()
        }

    speedups = benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        [name, f"{median:.1f}x", f"[{low:.1f}, {high:.1f}]x"]
        for name, (median, low, high) in speedups.items()
    ]
    text = format_table(["oracle / kernel", "median", "95% interval"], rows)
    text += (
        f"\n\n{KERNEL_PAIRS} paired blocks of {KERNEL_CALLS_PER_BLOCK}"
        " calls, sides alternating; the oracle is the scalar codec kept"
        " in tests/mlg/wire_oracle.py.  Floor on both batch rows:"
        f" {KERNEL_SPEEDUP_FLOOR:.0f}x (the run fails only if a whole"
        " interval lies below it)."
    )
    write_artifact("bench_wire_kernels.txt", text)
    for name, (_, low, high) in speedups.items():
        if name.startswith("batch"):
            assert high >= KERNEL_SPEEDUP_FLOOR, (
                f"{name}: kernel is [{low:.1f}, {high:.1f}]x the oracle,"
                f" floor {KERNEL_SPEEDUP_FLOOR:.0f}x"
            )


def test_loopback_rtt(benchmark, out_dir, tmp_path):
    """Serve one tcp cell and measure client-side response times."""
    out = tmp_path / "campaign"
    spec_path = tmp_path / "wire.yaml"
    spec_path.write_text(
        json.dumps(
            {
                "name": "wire-bench",
                "servers": ["vanilla"],
                "workloads": ["players"],
                "environments": ["das5"],
                "bot_counts": [RTT_BOTS],
                "iterations": 1,
                "duration_s": RTT_DURATION_S,
                "seed": 11,
                "transport": "tcp",
                "output_dir": str(out),
            }
        )
    )

    def loopback():
        return serve_and_join(
            spec_path,
            lambda port: run_clients(
                "127.0.0.1", port, RTT_BOTS, stagger_s=0.05, seed=11
            ),
            cell=0,
        )

    t0 = time.perf_counter()
    served, clients = benchmark.pedantic(loopback, rounds=1, iterations=1)
    wall_s = time.perf_counter() - t0
    store = JobStore(out)
    line = store.read_job_telemetry(served["job_id"])[0]
    wire = line["telemetry"]["wire"]

    rows = [
        ["clients", f"{clients['connected']} / {RTT_BOTS}"],
        ["cell duration", f"{RTT_DURATION_S:.1f} sim-s"
         f"  ({wall_s:.1f} s wall)"],
        ["ticks seen", f"{clients['ticks_seen']}"],
        ["response samples", f"{clients['samples']}"],
        ["response p50", f"{clients['response_p50_ms']:.1f} ms"],
        ["response p99", f"{clients['response_p99_ms']:.1f} ms"],
        ["server bytes out", f"{wire['wire_bytes_out']['total'] / 1e6:.2f} MB"],
        ["server bytes in", f"{wire['wire_bytes_in']['total'] / 1e3:.1f} kB"],
        ["flush p99", f"{wire['wire_flush_us']['p99']:.0f} µs"],
    ]
    text = format_table(["metric", "value"], rows)
    text += (
        "\n\nresponse times are measured on the client side of real"
        " sockets and streamed back as telemetry; p50 should sit near"
        " the simulated network+queue latency, not the loopback RTT."
    )
    write_artifact("bench_wire_loopback.txt", text)
    assert clients["connected"] == RTT_BOTS
    assert clients["samples"] > 0
