"""The five hostclock workloads, sized as constants.

Every workload drives the system only through its public entry points
(``run_iteration``, ``serve_cell`` + ``run_clients``,
``CampaignExecutor.run``, ``load_dataset`` + ``write_report``).  One call
of a workload's ``rep`` function is one repetition; ``run.py`` repeats it
with the same seed until its time budget is spent.  Sizes were measured
on a 2-vCPU box (CPython 3.11) so that a repetition takes 3-6 s; they are
constants, not options, so two commits always run the same work.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from layers import LayerTrace, measured

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.core.experiment import run_iteration
from repro.mlg import wirecodec as wc
from repro.mlg.protocol import ActionKind, PacketCategory, PlayerAction
from repro.net import run_clients, serve_cell
from repro.persistence.store import world_hash
from repro.reporting import load_dataset, write_report
from repro.telemetry.bus import TelemetryBus

SERVER = "vanilla"
ENVIRONMENT = "aws-t3.large"

#: (workload, environment, simulated seconds) legs of one in-process rep.
FLOOR_CONTROL_LEGS = (("control", ENVIRONMENT, 60.0),)
ENTITIES_FARM_LEGS = (("farm", ENVIRONMENT, 30.0),)
#: The TNT cuboid is primed 20 simulated seconds after connect and its
#: fuses burn 70-95 ticks that by then run far over budget: the first
#: explosion lands near simulated second 40 and the last, depending on the
#: seed, between 50 and 65.  The leg runs to 70 so that every seed pays
#: for the whole chain; cut at 50 its host cost differed 1.6x by seed.
TERRAIN_WRITES_LEGS = (
    ("tnt", ENVIRONMENT, 70.0),
    ("flood", ENVIRONMENT, 60.0),
)

WIRE_SIM_S = 20.0
WIRE_CLIENTS = 2
#: Seconds to wait for the serve thread to bind / finish before the rep
#: is abandoned as failed (a healthy rep needs about five).
WIRE_TIMEOUT_S = 90.0

CAMPAIGN_JOBS = 2
CAMPAIGN_SPEC = {
    "name": "hostclock-campaign",
    "servers": ["vanilla", "papermc"],
    "workloads": ["exploration", "players"],
    "environments": [ENVIRONMENT],
    "bot_counts": [25],
    "iterations": 2,
    "duration_s": 5.0,
    "trace": True,
    "warm_world_cache": True,
    "max_loaded_chunks": 200,
    "autosave_interval_s": 2.5,
}

#: Frames per direct codec pass (``mlg.wirecodec.*`` layer metrics).
CODEC_FRAMES = 20_000
#: State-frame mix of one server flush for a small fleet: entity moves
#: dominate.  Same mix as ``benchmarks/bench_wire.py``, restated here so
#: the benchmark's files stand alone.
STATE_MIX = (
    (PacketCategory.ENTITY_MOVE, 12),
    (PacketCategory.ENTITY_VELOCITY, 4),
    (PacketCategory.BLOCK_CHANGE, 2),
    (PacketCategory.SOUND_EFFECT, 1),
    (PacketCategory.CHAT, 1),
    (PacketCategory.KEEPALIVE, 1),
    (PacketCategory.TIME_UPDATE, 1),
)
BUS_PUBLISHES = 200_000


Span = tuple[float, float]


@dataclass
class Rep:
    """What one repetition measured.  Spans are ``perf_counter`` readings
    (start, end); ``run.py`` turns them into seconds on its clock."""

    #: Everything before the first measured tick.
    setup: list[Span]
    #: The measured calls.  Their set-up is either inside them (wire,
    #: campaign) or an equal twin of ``setup`` (in process), so the tick
    #: loop is ``measured`` minus ``setup`` either way.
    measured: list[Span]
    ticks: int
    sim_s: float
    #: Operations: iterations, client connections, shards, sidecars, reports.
    attempted: int
    failed: int
    digest: str
    #: Layer facts read from the run's own artifacts and results.
    facts: dict = field(default_factory=dict)

    def times(self, seconds: Callable[[float, float], float]) -> tuple[float, float]:
        """(set-up, tick loop) seconds of this rep on the clock ``seconds``."""
        setup_s = sum(seconds(*span) for span in self.setup)
        return setup_s, sum(seconds(*span) for span in self.measured) - setup_s


def simulated_digest(iterations) -> str:
    """sha256 over what the iterations *simulated* — no host time.

    Covers the tick count, the per-tick simulated durations (the machine
    model's output for each tick's ``work_us``), the streaming tick
    snapshot, packet counts and bytes, the crash flag, and the world
    fingerprint where the public result carries one (persistence cells).
    """
    digest = hashlib.sha256()
    for it in iterations:
        telemetry = it.telemetry or {}
        digest.update(
            json.dumps(
                [
                    it.server,
                    it.workload,
                    it.seed,
                    it.tick_durations_ms,
                    telemetry.get("tick"),
                    it.packet_counts,
                    it.packet_bytes,
                    it.crashed,
                    telemetry.get("world"),
                ],
                sort_keys=True,
            ).encode()
        )
    return digest.hexdigest()


def _iteration_facts(iterations) -> dict:
    ticks = [(it.telemetry or {}).get("tick") or {} for it in iterations]
    return {
        "ticks": sum(tick.get("ticks", 0) for tick in ticks),
        "sim_s": sum(tick.get("wall_us", 0.0) for tick in ticks) / 1e6,
        "packets": sum(sum(it.packet_counts.values()) for it in iterations),
        "packet_bytes": sum(sum(it.packet_bytes.values()) for it in iterations),
        "entities": max(
            (tick.get("entities_peak", 0) for tick in ticks), default=0
        ),
    }


# -- in-process workloads ------------------------------------------------------


def inproc_rep(legs, seed: int, scratch: Path, trace: LayerTrace | None) -> Rep:
    """One rep of ``run_iteration`` legs; needs no scratch directory."""
    setup = []
    spans = []
    iterations = []
    world_hashes = []
    for workload, environment, sim_s in legs:
        # Set-up is everything before the first tick: a zero-length run.
        start = time.perf_counter()
        run_iteration(workload, SERVER, environment, duration_s=0.0, seed=seed)
        setup.append((start, time.perf_counter()))
        with measured(trace):
            start = time.perf_counter()
            iterations.append(
                run_iteration(
                    workload, SERVER, environment, duration_s=sim_s, seed=seed
                )
            )
            spans.append((start, time.perf_counter()))
        if trace is not None and trace.last_world is not None:
            # Only a traced rep can reach the world the run built.
            world_hashes.append(f"{world_hash(trace.last_world):08x}")
    facts = _iteration_facts(iterations)
    facts["world_hashes"] = world_hashes
    return Rep(
        setup=setup,
        measured=spans,
        ticks=facts["ticks"],
        sim_s=facts["sim_s"],
        attempted=len(iterations),
        failed=sum(1 for it in iterations if it.crashed),
        digest=simulated_digest(iterations),
        facts=facts,
    )


# -- wire_farm -----------------------------------------------------------------


def wire_failures(clients: dict, iterations, sidecar_lines) -> tuple[int, int]:
    """(attempted, failed) operations of one wire rep: the iteration, each
    client connection, the job shard and the telemetry sidecar."""
    attempted = 1 + clients["clients"] + 2
    failed = clients["clients"] - clients["connected"]
    if not iterations:
        failed += 2  # no shard, so no iteration result either
    elif iterations[0].crashed:
        failed += 1
    if len(sidecar_lines) != 1:
        failed += 1
    return attempted, failed


def wire_farm(seed: int, scratch: Path, trace: LayerTrace | None) -> Rep:
    out = scratch / "wire"
    spec_path = scratch / "wire.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "hostclock-wire",
                "servers": [SERVER],
                "workloads": ["farm"],
                "environments": [ENVIRONMENT],
                "iterations": 1,
                "duration_s": WIRE_SIM_S,
                "seed": seed,
                "output_dir": str(out),
                "transport": "tcp",
                "wire_port": 0,
            }
        )
    )
    listening = threading.Event()
    served: dict = {}

    def on_listen(port: int) -> None:
        served["port"] = port
        served["listen_at"] = time.perf_counter()
        listening.set()

    def serve() -> None:
        try:
            # Unpaced, so wall measures the program and not asyncio.sleep.
            served["summary"] = serve_cell(
                spec_path, realtime=False, on_listen=on_listen
            )
        except Exception:
            served["error"] = traceback.format_exc()
        finally:
            listening.set()

    thread = threading.Thread(target=serve, name="hostclock-serve")
    with measured(trace):
        start = time.perf_counter()
        thread.start()
        listening.wait(WIRE_TIMEOUT_S)
        if "port" not in served:
            thread.join(WIRE_TIMEOUT_S)
            raise RuntimeError(
                "serve_cell never listened:\n" + served.get("error", "timeout")
            )
        clients = run_clients(
            "127.0.0.1", served["port"], n=WIRE_CLIENTS, stagger_s=0, seed=seed
        )
        thread.join(WIRE_TIMEOUT_S)
        end = time.perf_counter()
    if thread.is_alive() or "summary" not in served:
        raise RuntimeError(
            "serve_cell did not finish:\n" + served.get("error", "timeout")
        )
    store = JobStore(out)
    job_id = served["summary"]["job_id"]
    iterations = store.load_job(job_id) or []
    lines = store.read_job_telemetry(job_id)
    attempted, failed = wire_failures(clients, iterations, lines)
    facts = _iteration_facts(iterations)
    wire = (lines[0]["telemetry"].get("wire") or {}) if lines else {}
    facts["flush_us"] = (wire.get("wire_flush_us") or {}).get("total", 0.0)
    facts["bytes_out"] = (wire.get("wire_bytes_out") or {}).get("total", 0.0)
    facts["clients"] = clients
    return Rep(
        setup=[(start, served["listen_at"])],
        measured=[(start, end)],
        ticks=facts["ticks"],
        sim_s=facts["sim_s"],
        attempted=attempted,
        failed=failed,
        digest=simulated_digest(iterations),
        facts=facts,
    )


# -- campaign_matrix -----------------------------------------------------------


def campaign_failures(
    jobs, shards: dict, sidecars: dict, n_iterations: int, report_written: bool
) -> tuple[int, int]:
    """(attempted, failed) operations of one campaign rep: every planned
    iteration, one shard and one sidecar per job, and the report."""
    attempted = len(jobs) * (n_iterations + 2) + 1
    failed = 0 if report_written else 1
    for job in jobs:
        iterations = shards.get(job.job_id)
        if iterations is None or len(iterations) != n_iterations:
            failed += 1 + n_iterations
        else:
            failed += sum(1 for it in iterations if it.crashed)
        if len(sidecars.get(job.job_id, ())) != n_iterations:
            failed += 1
    return attempted, failed


def campaign_matrix(seed: int, scratch: Path, trace: LayerTrace | None) -> Rep:
    out = scratch / "campaign"
    spec = CampaignSpec.from_dict(
        {
            **CAMPAIGN_SPEC,
            "seed": seed,
            "output_dir": str(out),
            "world_dir": str(scratch / "world"),
        }
    )
    store = JobStore(out)
    with measured(trace):
        start = time.perf_counter()
        CampaignExecutor(spec, store=store, jobs=CAMPAIGN_JOBS).run()
        run_s = time.perf_counter() - start
        dataset = load_dataset(store)
        load_s = time.perf_counter() - start - run_s
        written = write_report(dataset)
        end = time.perf_counter()
    jobs = store.manifest_jobs()
    shards = {}
    for job in jobs:
        try:
            shards[job.job_id] = store.load_job(job.job_id)
        except (ValueError, TypeError, KeyError):
            shards[job.job_id] = None  # a shard that does not parse
    sidecars = {job.job_id: store.read_job_telemetry(job.job_id) for job in jobs}
    report = written.get("html")
    attempted, failed = campaign_failures(
        jobs,
        shards,
        sidecars,
        spec.iterations,
        report is not None and report.stat().st_size > 0,
    )
    iterations = [it for job in jobs for it in shards[job.job_id] or ()]
    campaign_trace = store.read_campaign_trace() or {}
    phases = campaign_trace.get("phases") or {}
    job_phases = campaign_trace.get("jobs") or {}
    if trace is not None:
        for job_phase in job_phases.values():
            trace.absorb(job_phase.get("hostclock"))
    facts = _iteration_facts(iterations)
    facts.update(
        phases=phases,
        job_iterate_s=sum(p.get("iterate_s", 0.0) for p in job_phases.values()),
        pool_jobs=CAMPAIGN_JOBS,
        load_dataset_s=load_s,
        write_report_s=end - start - run_s - load_s,
    )
    # Planning and the warm boot are the first things ``run`` does.
    setup_s = phases.get("plan_s", 0.0) + phases.get("warm_boot_s", 0.0)
    return Rep(
        setup=[(start, start + setup_s)],
        measured=[(start, end)],
        ticks=facts["ticks"],
        sim_s=facts["sim_s"],
        attempted=attempted,
        failed=failed,
        digest=simulated_digest(iterations),
        facts=facts,
    )


# -- direct layer calls (traced runs only) ---------------------------------------


def _codec_frames(rng: np.random.Generator) -> list[tuple]:
    """``CODEC_FRAMES`` (encoder, arguments) pairs of the flush mix,
    drawn before the clock starts so only the codec is timed."""
    frames: list[tuple] = []
    categories = [c for c, weight in STATE_MIX for _ in range(weight)]
    stamps = rng.integers(0, 1 << 20, CODEC_FRAMES).tolist()
    for i in range(CODEC_FRAMES):
        pick = i % (len(categories) + 2)
        if pick < len(categories):
            category = categories[pick]
            payload = tuple(
                int(rng.integers(-64, 64)) if tag == "sv"
                else int(rng.integers(0, 128))
                for tag in wc.CATEGORY_SCHEMAS[category]
            )
            if i % 2:
                frames.append((wc.encode_state, (category, payload)))
            else:
                frames.append(
                    (wc.encode_delivery, (category, payload, stamps[i]))
                )
        elif pick == len(categories):
            action = PlayerAction(
                ActionKind.MOVE,
                int(rng.integers(1, 64)),
                tuple(rng.uniform(0, 32, 3).tolist()),
            )
            frames.append((wc.encode_action, (action, stamps[i])))
        else:
            deltas = rng.integers(-8, 9, (16, 2)).tolist()
            moves = tuple(
                (eid, dx, 0, dz) for eid, (dx, dz) in enumerate(deltas, 1)
            )
            frames.append((wc.encode_entity_batch, (moves,)))
    return frames


def codec_rates(seed: int) -> dict:
    """Encode/decode rates of ``mlg.wirecodec`` on the flush mix."""
    frames = _codec_frames(np.random.default_rng(seed))
    buf = bytearray()
    start = time.perf_counter()
    for encode, arguments in frames:
        buf += encode(*arguments)
    encode_s = time.perf_counter() - start
    wire = bytes(buf)
    decoder = wc.FrameDecoder()
    start = time.perf_counter()
    decoded = decoder.feed(wire)
    decode_s = time.perf_counter() - start
    if len(decoded) != CODEC_FRAMES or decoder.pending_bytes:
        raise RuntimeError("wirecodec round trip lost frames")
    return {
        "encode_frames_per_s": CODEC_FRAMES / encode_s,
        "decode_frames_per_s": CODEC_FRAMES / decode_s,
        "bytes_per_frame": len(wire) / CODEC_FRAMES,
    }


def wire_direct(seed: int, scratch: Path) -> dict:
    """``wire_farm``'s direct layer calls: the codec rates, and a rep of
    the no-wire twin — ``farm`` in process for the wire rep's simulated
    length (``net.wire.share`` compares their loop seconds per tick)."""
    twin = inproc_rep((("farm", ENVIRONMENT, WIRE_SIM_S),), seed, scratch, None)
    return {**codec_rates(seed), "twin": twin}


def campaign_direct(seed: int, scratch: Path) -> dict:
    """Host ns per ``TelemetryBus.publish`` on one watched metric."""
    bus = TelemetryBus()
    bus.watch("tick_ms", window_size=100)
    start = time.perf_counter_ns()
    for i in range(BUS_PUBLISHES):
        bus.publish("tick_ms", 20.0 + (i & 7))
    return {"bus_publish_ns": (time.perf_counter_ns() - start) / BUS_PUBLISHES}


@dataclass(frozen=True)
class Workload:
    name: str
    rep: Callable[[int, Path, LayerTrace | None], Rep]
    #: Operations one rep attempts, for a rep that raises before counting.
    ops: int
    #: False where host scheduling decides the tick each client action
    #: lands on, so reps of one seed need not simulate the same thing.
    digest_repeats: bool = True
    #: Layer numbers no public entry point isolates: direct calls, made in
    #: a traced run of the workload whose layer they describe.
    direct: Callable[[int, Path], dict] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        *(
            Workload(name, partial(inproc_rep, legs), len(legs))
            for name, legs in (
                ("floor_control", FLOOR_CONTROL_LEGS),
                ("entities_farm", ENTITIES_FARM_LEGS),
                ("terrain_writes", TERRAIN_WRITES_LEGS),
            )
        ),
        Workload(
            "wire_farm",
            wire_farm,
            3 + WIRE_CLIENTS,
            digest_repeats=False,
            direct=wire_direct,
        ),
        Workload(
            "campaign_matrix",
            campaign_matrix,
            len(CAMPAIGN_SPEC["servers"])
            * len(CAMPAIGN_SPEC["workloads"])
            * (CAMPAIGN_SPEC["iterations"] + 2)
            + 1,
            direct=campaign_direct,
        ),
    )
}
