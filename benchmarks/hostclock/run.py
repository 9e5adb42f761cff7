#!/usr/bin/env python3
"""hostclock: what the simulator costs the host, per workload and per layer.

    python3 benchmarks/hostclock/run.py --workload floor_control --seed 1 \\
        --seconds 20 --trace 0

One process measures one workload: it repeats the workload with the same
seed until ``--seconds`` are spent.  Every number is **host** time; the
simulated statistics are deterministic and serve as the correctness check,
not as the result.  The process is pinned to one CPU and times are taken
on a clock that discounts the host's speed wander (``hostspeed.py``).

``--trace 0`` is the end-to-end run: no wrapper is installed anywhere.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is one JSON object; the full record of the run (raw
per-rep samples, quartiles, host conditions) is written under
``benchmarks/out/hostclock/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = ROOT / "benchmarks" / "out" / "hostclock"


def load_benchmark() -> dict:
    """The metric and workload declarations: ``BENCHMARK.json`` is the one
    place names, units and bounds are written down."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_system():
    """Import the system under test and the workloads; returns the
    ``workloads`` module and the import's wall seconds."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"hostclock: no system to measure: {ROOT / 'src' / 'repro'} "
            "is missing (run from a full checkout)"
        )
    for path in (ROOT / "src", HERE):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    start = time.perf_counter()
    import workloads

    return workloads, time.perf_counter() - start


# -- statistics ----------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the raw samples of one per-rep series."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def per(total: float, count: float) -> float:
    return total / count if count else 0.0


def count_operations(workload, reps) -> tuple[int, int]:
    """(attempted, failed) over all reps; ``None`` is a rep that raised.

    A rep whose simulated digest differs from the first rep's did not run
    the same simulation, so every operation in it counts as failed.
    """
    attempted = failed = 0
    reference = next((rep.digest for rep in reps if rep is not None), None)
    for rep in reps:
        if rep is None:
            attempted += workload.ops
            failed += workload.ops
            continue
        attempted += rep.attempted
        if workload.digest_repeats and rep.digest != reference:
            failed += rep.attempted
        else:
            failed += rep.failed
    return attempted, failed


# -- measuring -----------------------------------------------------------------


def run_reps(workload, seed: int, seconds: float, trace, scratch_root: Path):
    """Repeat the workload until the budget is spent.

    Returns ``[(traced, rep-or-None)]``.  A round of a traced run is an
    untraced and a traced rep, so both see the same host conditions, and
    rounds alternate which goes first.  A new round starts only if the
    longest round so far still fits.
    """
    deadline = time.perf_counter() + seconds
    modes = (False,) if trace is None else (False, True)
    min_rounds = 2 if trace is None else 1
    reps = []
    longest = 0.0
    rounds = 0
    while rounds < min_rounds or time.perf_counter() + longest <= deadline:
        round_start = time.perf_counter()
        for traced in modes[:: -1 if rounds % 2 else 1]:
            gc.collect()
            scratch = Path(tempfile.mkdtemp(dir=scratch_root))
            try:
                rep = workload.rep(seed, scratch, trace if traced else None)
            except Exception:
                # A rep that raises is a failed rep, not a failed benchmark:
                # it is counted, and the run reports correct=false.
                traceback.print_exc()
                rep = None
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            reps.append((traced, rep))
        longest = max(longest, time.perf_counter() - round_start)
        rounds += 1
    return reps


def wall_seconds(start: float, end: float) -> float:
    return end - start


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    return (
        max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        / 1024.0
    )


def ticks_per_s(reps, seconds) -> float:
    """Ticks the reps executed per second of tick loop, as one rate over
    all of them: with a handful of reps it is steadier than their median."""
    return sum(rep.ticks for rep in reps) / sum(
        rep.times(seconds)[1] for rep in reps
    )


def end_to_end_metrics(reps, seconds) -> dict:
    return {
        "setup_s": statistics.median(rep.times(seconds)[0] for rep in reps),
        "ticks_per_s": ticks_per_s(reps, seconds),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(
    plain, traced, trace, direct: dict, import_s: float, layers, seconds
) -> dict:
    """Every per-layer metric, from the traced reps' accumulators, the
    artifacts those reps wrote, and the direct layer calls.

    ``plain`` and ``traced`` are the untraced and the traced reps of the
    rounds in which both ran.  Wrapped calls are timed in plain host ns;
    the ratios between reps (overhead, wire share) on the clock ``seconds``.
    """
    ticks = sum(rep.ticks for rep in traced)
    n = len(traced)
    ns, calls, work = trace.ns, trace.calls, trace.work
    tick_us = [t / 1e3 for t in trace.tick_ns]

    def fact(name: str) -> float:
        return sum(rep.facts.get(name, 0.0) for rep in traced)

    def phase(name: str) -> float:
        return per(
            sum(rep.facts.get("phases", {}).get(name, 0.0) for rep in traced), n
        )

    def ms_per_call(layer: str) -> float:
        return per(ns[layer] / 1e6, calls[layer])

    def items_per_s(layer: str) -> float:
        return per(work[layer], ns[layer] / 1e9)

    plain_ticks_per_s = ticks_per_s(plain, seconds)
    wire_share = 0.0
    if "twin" in direct:
        wire_share = 1.0 - plain_ticks_per_s / ticks_per_s([direct["twin"]], seconds)
    metrics = {
        f"{layer}.us_per_tick": per(ns[layer] / 1e3, ticks)
        for layer, _, _ in layers.TICK_PHASES
        if layer != layers.TICK
    }
    metrics.update(
        {
            "mlg.server.tick.us_per_tick": per(sum(tick_us), ticks),
            "mlg.gameloop.self.us_per_tick": per(ns[layers.TICK] / 1e3, ticks),
            "mlg.server.tick.p50_us": statistics.median(tick_us),
            "mlg.server.tick.p99_us": statistics.quantiles(tick_us, n=100)[98],
            "mlg.server.tick.over_budget_share": per(
                sum(1 for t in tick_us if t > layers.TICK_BUDGET_US), len(tick_us)
            ),
            "mlg.server.tick.samples": len(tick_us),
            "workloads.create_world.ms": per(ns["workloads.create_world"] / 1e6, n),
            "workloads.install.ms": per(ns["workloads.install"] / 1e6, n),
            "mlg.server.init.ms": per(ns["mlg.server.init"] / 1e6, n),
            "repro.import_s": import_s,
            "ticks": per(ticks, n),
            "sim_s": per(sum(rep.sim_s for rep in traced), n),
            "mlg.world.loaded_chunks": trace.loaded_chunks,
            "mlg.entities.count": max(rep.facts["entities"] for rep in traced),
            "mlg.world.block_changes_per_tick": per(
                work["mlg.world.drain_changes"], ticks
            ),
            "mlg.netqueue.packets_per_tick": per(fact("packets"), ticks),
            "mlg.netqueue.bytes_per_tick": per(fact("packet_bytes"), ticks),
            "net.server.flush.us_per_tick": per(fact("flush_us"), ticks),
            "net.server.bytes_out_per_tick": per(fact("bytes_out"), ticks),
            "mlg.wirecodec.encode.frames_per_s": direct.get(
                "encode_frames_per_s", 0.0
            ),
            "mlg.wirecodec.decode.frames_per_s": direct.get(
                "decode_frames_per_s", 0.0
            ),
            "mlg.wirecodec.bytes_per_frame": direct.get("bytes_per_frame", 0.0),
            "net.wire.share": wire_share,
            "campaign.planner.plan.ms": per(ns["campaign.planner.plan"] / 1e6, n),
            "campaign.executor.warm_boot_s": phase("warm_boot_s"),
            "campaign.executor.iterate_s": phase("iterate_s"),
            "campaign.executor.externalize_s": phase("externalize_s"),
            "campaign.job.iterate_s_sum": per(fact("job_iterate_s"), n),
            "campaign.pool.efficiency": per(
                fact("job_iterate_s"), fact("pool_jobs") * phase("iterate_s")
            ),
            "campaign.store.save_job.ms_per_job": ms_per_call(
                "campaign.store.save_job"
            ),
            "campaign.store.merge.ms": ms_per_call("campaign.store.merge"),
            "campaign.executor.telemetry_line.us": 1e3
            * ms_per_call("campaign.executor.telemetry_line"),
            "core.results.to_dict.ms_per_iteration": ms_per_call(
                "core.results.to_dict"
            ),
            "persistence.region.save.chunks_per_s": items_per_s(
                "persistence.region.save"
            ),
            "persistence.region.load.chunks_per_s": items_per_s(
                "persistence.region.load"
            ),
            "telemetry.bus.publish.ns": direct.get("bus_publish_ns", 0.0),
            "reporting.load_dataset.ms": per(fact("load_dataset_s") * 1e3, n),
            "reporting.write_report.ms": per(fact("write_report_s") * 1e3, n),
            "hostclock.trace_overhead_share": 1.0
            - ticks_per_s(traced, seconds) / plain_ticks_per_s,
        }
    )
    return metrics


# -- host conditions -----------------------------------------------------------


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or ``None`` outside git."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def host_conditions(load_before, load_after) -> dict:
    import numpy

    from repro.reporting.hygiene import hygiene_snapshot

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git": git_state(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "hygiene": hygiene_snapshot({}),
    }


def write_record(out_dir: Path, workload: str, seed: int, record: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    n = 0
    while True:
        path = out_dir / f"{workload}-{seed}-{n}.json"
        try:
            with path.open("x") as stream:
                json.dump(record, stream, indent=1, sort_keys=True)
                stream.write("\n")
            return path
        except FileExistsError:
            n += 1


# -- entry point ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=[w["name"] for w in benchmark["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="measuring budget; repetitions stop when it is spent",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT,
        help="directory for the run's full record (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    wl, import_s = import_system()
    import hostspeed
    import layers

    workload = wl.WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    scratch_root = Path(tempfile.mkdtemp(dir=args.out, prefix="tmp-"))
    sys.stdout.flush()

    cpu = hostspeed.pin_to_one_cpu()
    clock = hostspeed.HostSpeed()
    clock.start()
    budget_start = time.perf_counter()
    trace = layers.LayerTrace() if args.trace else None
    try:
        direct = {}
        if args.trace and workload.direct is not None:
            direct = workload.direct(args.seed, scratch_root)
        remaining = args.seconds - (time.perf_counter() - budget_start)
        outcomes = run_reps(workload, args.seed, remaining, trace, scratch_root)
    finally:
        clock.stop()
        shutil.rmtree(scratch_root, ignore_errors=True)
    measured_s = time.perf_counter() - budget_start

    attempted, failed = count_operations(workload, [rep for _, rep in outcomes])
    untraced = [rep for traced, rep in outcomes if rep is not None and not traced]
    traced = [rep for traced, rep in outcomes if rep is not None and traced]
    if args.trace:
        # Per-layer numbers come from the rounds in which both reps ran.
        paired = [
            outcome
            for both in zip(outcomes[::2], outcomes[1::2])
            if None not in (both[0][1], both[1][1])
            for outcome in both
        ]
        untraced = [rep for was_traced, rep in paired if not was_traced]
        traced = [rep for was_traced, rep in paired if was_traced]
    if not untraced:
        print("hostclock: every repetition raised; nothing to report",
              file=sys.stderr)
        return 1

    if args.trace:
        declared = benchmark["per_layer"]
        values = layer_metrics(
            untraced, traced, trace, direct, import_s, layers, clock.seconds
        )
    else:
        declared = benchmark["end_to_end"]
        values = end_to_end_metrics(untraced, clock.seconds)
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise SystemExit(
            "hostclock: BENCHMARK.json and run.py disagree on metrics: "
            f"{sorted(set(names) ^ set(values))}"
        )
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }

    times = [rep.times(clock.seconds) for rep in untraced]
    wall_times = [rep.times(wall_seconds) for rep in untraced]
    record = {
        "benchmark": "hostclock",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": untraced[0].digest,
        "digest_repeats": workload.digest_repeats,
        "world_hashes": traced[0].facts.get("world_hashes") if traced else None,
        "metrics": metrics,
        # Per-rep samples on the compensated clock and in plain wall seconds.
        "summary": {
            "setup_s": summarize([setup for setup, _ in times]),
            "ticks_per_s": summarize(
                [rep.ticks / loop for rep, (_, loop) in zip(untraced, times)]
            ),
            "wall_setup_s": summarize([setup for setup, _ in wall_times]),
            "wall_ticks_per_s": summarize(
                [rep.ticks / loop for rep, (_, loop) in zip(untraced, wall_times)]
            ),
        },
        "wall_ticks_per_s": ticks_per_s(untraced, wall_seconds),
        "reps": [
            None if rep is None else {
                "traced": was_traced,
                # Wall spans, in seconds since the first repetition began.
                "setup": [[a - budget_start, b - budget_start] for a, b in rep.setup],
                "measured": [
                    [a - budget_start, b - budget_start] for a, b in rep.measured
                ],
                "ticks": rep.ticks,
                "sim_s": rep.sim_s,
                "attempted": rep.attempted,
                "failed": rep.failed,
                "digest": rep.digest,
            }
            for was_traced, rep in outcomes
        ],
        "host": host_conditions(load_before, os.getloadavg()),
    }
    # Every sample of the host's speed, on the time base of the spans above,
    # so the compensated numbers can be recomputed from the record.
    probe = summarize(clock.probe_s)
    record["host"]["speed"] = {
        "cpu": cpu,
        "nominal_probe_s": hostspeed.NOMINAL_PROBE_S,
        "sensitivity": hostspeed.SENSITIVITY,
        "probe_s": probe,
        "at": [round(at - budget_start, 4) for at in clock.at],
    }
    path = write_record(args.out, args.workload, args.seed, record)

    print(f"hostclock {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced reps "
          f"in {measured_s:.1f} s -> {path}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'wall_ticks_per_s':<42} {record['wall_ticks_per_s']:>14.6g} "
          "ticks/s (plain wall seconds, not gated)")
    print(f"  {'host probe':<42} {probe['median'] * 1e3:>14.6g} ms "
          f"(nominal {hostspeed.NOMINAL_PROBE_S * 1e3:g}, cpu {cpu})")
    print(f"  {'failed_share':<42} {failed / attempted:>14.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(f"  simulated digest {record['digest']}"
          + ("" if workload.digest_repeats else " (not compared across reps)"))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
