"""The ``repro`` command line: run, resume, inspect, and export campaigns.

Usage (also via the ``repro`` console script)::

    python -m repro run campaign.yaml --jobs 4
    python -m repro resume campaign.yaml --jobs 4
    python -m repro status meterstick-out/
    python -m repro top meterstick-out/
    python -m repro top http://127.0.0.1:9178/metrics
    python -m repro export meterstick-out/ --out analysis/
    python -m repro report meterstick-out/
    python -m repro report campaign.yaml --update-output
    python -m repro trace export meterstick-out/
    python -m repro serve campaign.yaml --cell 0 --port 25570
    python -m repro clients --port 25570 -n 25
    python -m repro world prepare worlds/control --workload control
    python -m repro world inspect worlds/control

``run``/``resume`` take a campaign spec file (YAML or JSON);
``status``/``export``/``trace`` take either a spec file or a campaign
output directory (one containing a ``manifest.json``); ``world`` manages
the region-file world directories used for warm boots and persistence
runs.  ``status`` prints the per-job table once; ``top`` is the one live
view, redrawing one block per cell — each cell's statistics computed
from its records' series, as the report computes them — from a campaign
directory or an obs endpoint.  ``trace export`` renders a traced
campaign (spec ``trace: true``) as Chrome trace-event JSON, loadable in
Perfetto or ``chrome://tracing``.  ``serve``/``clients`` split one cell
across real TCP sockets: ``serve`` runs a cell's server chain behind the
asyncio wire front end (writing the standard manifest and job record),
and ``clients`` ramps emulated players against it from a separate
process.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.retrieval import retrieve
from repro.reporting.text import ascii_boxplot, format_table
from repro.telemetry.catalog import COLUMNS, lookup, read_columns, top_bucket
from repro.campaign.executor import CampaignExecutor
from repro.campaign.planner import Job
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Meterstick campaign orchestration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a campaign spec from scratch")
    run.add_argument("spec", help="campaign spec file (.yaml/.yml/.json)")
    _add_run_options(run)

    resume = sub.add_parser(
        "resume", help="finish a killed campaign, skipping completed jobs"
    )
    resume.add_argument(
        "target", help="campaign spec file or campaign output directory"
    )
    _add_run_options(resume)

    status = sub.add_parser(
        "status",
        help="show per-job completion once ('repro top <dir>' follows it)",
    )
    status.add_argument(
        "target", help="campaign spec file or campaign output directory"
    )

    export = sub.add_parser(
        "export", help="merge completed jobs and export CSVs + figure data"
    )
    export.add_argument(
        "target", help="campaign spec file or campaign output directory"
    )
    export.add_argument(
        "--out",
        default=None,
        help="export directory (default: <output_dir>/export)",
    )
    export.add_argument(
        "--boxplot",
        action="store_true",
        help="print an ASCII tick-duration box plot per server",
    )

    report = sub.add_parser(
        "report",
        help="render the self-contained HTML report from the on-disk "
        "job records (no re-simulation)",
    )
    report.add_argument(
        "target", help="campaign spec file or campaign output directory"
    )
    report.add_argument(
        "--out",
        default=None,
        help="report directory (default: <output_dir>/report)",
    )
    report.add_argument(
        "--update-output",
        action="store_true",
        help="persist the spec file's output: section into the campaign "
        "manifest before rendering (job records are never touched)",
    )

    trace = sub.add_parser(
        "trace", help="export span traces from a traced campaign"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_export = trace_sub.add_parser(
        "export",
        help="render Chrome trace-event JSON (Perfetto/chrome://tracing)",
    )
    trace_export.add_argument(
        "target", help="campaign spec file or campaign output directory"
    )
    trace_export.add_argument(
        "--out",
        default=None,
        help="trace file to write (default: <output_dir>/export/trace.json)",
    )

    serve = sub.add_parser(
        "serve",
        help="serve one campaign cell over TCP (players connect with "
        "'repro clients'); writes the standard manifest and job record",
    )
    serve.add_argument("spec", help="campaign spec file (.yaml/.yml/.json)")
    serve.add_argument(
        "--cell",
        type=int,
        default=0,
        metavar="N",
        help="planned job index to serve (default: 0)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="listen port (default: the spec's wire_port; 0 = OS-assigned)",
    )
    serve.add_argument(
        "--no-realtime",
        action="store_true",
        help="tick as fast as possible instead of pacing 50 ms/tick",
    )

    clients = sub.add_parser(
        "clients",
        help="ramp N emulated players over TCP against 'repro serve'",
    )
    clients.add_argument("--host", default="127.0.0.1")
    clients.add_argument("--port", type=int, required=True)
    clients.add_argument("-n", type=int, default=25, help="bot count")
    clients.add_argument("--behavior", default="bounded-random")
    clients.add_argument(
        "--stagger-s",
        type=float,
        default=0.25,
        help="wall seconds between joins (0 = connect storm)",
    )
    clients.add_argument(
        "--duration-s",
        type=float,
        default=None,
        help="give up after this much wall time (default: until the "
        "server closes the iteration)",
    )
    clients.add_argument("--seed", type=int, default=0)
    clients.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="collect client-side spans (wait/dispatch/step/drain per "
        "tick) into this JSONL file; write it as "
        "<output_dir>/telemetry/<name>.clientspans.jsonl and 'repro "
        "trace export' merges it into the campaign timeline",
    )

    top = sub.add_parser(
        "top",
        help="live plain-ANSI dashboard over a metrics endpoint URL or "
        "a campaign output directory",
    )
    top.add_argument(
        "target",
        help="obs endpoint URL (http://host:port/metrics) or a campaign "
        "output directory",
    )
    top.add_argument(
        "--interval-s",
        type=float,
        default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (no ANSI clear; CI-friendly)",
    )

    world = sub.add_parser(
        "world", help="prepare and inspect on-disk world directories"
    )
    world_sub = world.add_subparsers(dest="world_command", required=True)
    prepare = world_sub.add_parser(
        "prepare",
        help="pre-generate a workload world into a region-file store",
    )
    prepare.add_argument("out_dir", help="world directory to write")
    prepare.add_argument(
        "--workload", default="control", help="workload whose world to build"
    )
    prepare.add_argument("--scale", type=float, default=1.0)
    prepare.add_argument("--seed", type=int, default=0)
    prepare.add_argument(
        "--radius",
        type=int,
        default=None,
        metavar="CHUNKS",
        help="pre-generation radius around spawn, in chunks "
        "(default: view distance + 2)",
    )
    inspect_ = world_sub.add_parser(
        "inspect",
        help="scan a world directory: chunk counts, damage, content hash",
    )
    inspect_.add_argument("world_dir", help="world directory to scan")
    return parser


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: the spec's jobs field)",
    )
    sub.add_argument(
        "--output-dir",
        default=None,
        help="override the spec's output_dir",
    )
    sub.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress"
    )


def _load_spec(target: str, output_dir: str | None = None) -> CampaignSpec:
    """Resolve a spec from a spec file or a campaign output directory."""
    path = Path(target)
    if path.is_dir():
        spec = JobStore(path).manifest_spec()
        # The manifest may predate a move of the campaign directory;
        # trust the directory we were pointed at.
        spec.output_dir = str(path)
    elif path.is_file():
        spec = CampaignSpec.from_file(path)
    else:
        raise FileNotFoundError(
            f"{target!r} is neither a campaign spec file nor a campaign "
            "output directory"
        )
    if output_dir is not None:
        spec.output_dir = output_dir
    return spec


def _progress_printer(quiet: bool):
    if quiet:
        return None

    def progress(job: Job, n_done: int, n_total: int) -> None:
        print(
            f"[{n_done}/{n_total}] {job.job_id}  {job.cell.key()}",
            flush=True,
        )

    return progress


def _cmd_run(args: argparse.Namespace, resume: bool) -> int:
    target = args.spec if not resume else args.target
    spec = _load_spec(target, args.output_dir)
    executor = CampaignExecutor(
        spec, jobs=args.jobs, progress=_progress_printer(args.quiet)
    )
    verb = "Resuming" if resume else "Running"
    if not args.quiet:
        print(
            f"{verb} campaign {spec.name!r}: {spec.n_cells} cells × "
            f"{spec.iterations} iteration(s) → {spec.output_dir} "
            f"({executor.jobs} worker(s))"
        )
    result = executor.run(resume=resume)
    if not args.quiet:
        print(
            f"Campaign complete: {len(result.iterations)} iteration(s) "
            f"stored in {spec.output_dir}"
        )
    return 0


def _telemetry_columns(entry: dict, iterations: int) -> list[str]:
    """Live columns for one job: iterations, p50/p99/CoV, warmup state,
    and the dominant Fig. 11 bucket as ``name share%``.

    Read from the latest iteration line of the job's streamed record, at
    the places the metric catalog names, so they update while the job is
    still running (``status`` on a live campaign).
    """
    line = entry.get("telemetry") or {}
    cols = read_columns(line)
    if cols["tick_p50_ms"] is None:
        return [f"0/{iterations}", "-", "-", "-", "-", "-"]
    top = top_bucket(lookup(line, COLUMNS["top_bucket"].path))
    return [
        f"{entry.get('iterations_done', 0)}/{iterations}",
        f"{cols['tick_p50_ms']:.1f}",
        f"{cols['tick_p99_ms']:.1f}",
        f"{cols['tick_cov']:.3f}",
        "steady" if cols["steady"] else "warmup",
        "-" if top is None else f"{top[0]} {100.0 * top[1] / top[2]:.0f}%",
    ]


_STATUS_HEADERS = (
    "job",
    "server",
    "workload",
    "environment",
    "scale",
    "bots",
    "behavior",
    "status",
    "iters",
    "p50ms",
    "p99ms",
    "cov",
    "phase",
    "top bucket",
)


def _status_frame(spec: CampaignSpec, store: JobStore, status: dict) -> str:
    """The rendered ``status`` output for one per-job entry map."""
    iterations_by_id = {
        job.job_id: spec.cell_iterations(job.cell)
        for job in store.manifest_jobs()
    }
    rows = [
        [
            entry["job_id"],
            *entry["cell"].split("|"),
            entry["state"],
            *_telemetry_columns(
                entry,
                iterations_by_id.get(entry["job_id"], spec.iterations),
            ),
        ]
        for entry in status["jobs"]
    ]
    lines = [f"Campaign {spec.name!r} in {store.root}"]
    provenance_line = _provenance_line(store.read_manifest())
    if provenance_line:
        lines.append(provenance_line)
    lines.append(format_table(_STATUS_HEADERS, rows))
    parts = [f"{status['completed']}/{status['total']} jobs complete"]
    if status.get("running"):
        parts.append(f"{status['running']} running")
    lines.append(", ".join(parts))
    return "\n".join(lines)


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _load_spec(args.target)
    store = JobStore(spec.output_dir)
    print(_status_frame(spec, store, store.status()))
    return 0


def _provenance_line(manifest: dict | None) -> str | None:
    """One-line run-provenance summary from the campaign manifest."""
    provenance = (manifest or {}).get("provenance")
    if not provenance:
        return None
    env = provenance.get("environment") or {}
    sha = env.get("git_sha")
    parts = [
        f"provenance {provenance.get('fingerprint', '?')[:12]}",
        f"git {sha[:10] if sha else 'n/a'}"
        + ("+dirty" if env.get("git_dirty") else ""),
        f"python {env.get('python', '?')}",
        f"numpy {env.get('numpy', '?')}",
    ]
    captured = provenance.get("captured_at")
    if captured:
        parts.append(f"captured {captured}")
    return "  ".join(parts)


def _cmd_export(args: argparse.Namespace) -> int:
    spec = _load_spec(args.target)
    store = JobStore(spec.output_dir)
    status = store.status()
    if status["completed"] == 0:
        print(f"no completed jobs in {store.root}", file=sys.stderr)
        return 1
    result = store.merge()
    out = Path(args.out) if args.out else store.root / "export"
    retrieve(result, out)
    manifest = store.read_manifest() or {}
    if manifest.get("provenance"):
        out.mkdir(parents=True, exist_ok=True)
        (out / "provenance.json").write_text(
            json.dumps(manifest["provenance"], indent=2, sort_keys=True)
            + "\n"
        )
        line = _provenance_line(manifest)
        if line:
            print(line)
    if status["pending"]:
        print(
            f"warning: exported {status['completed']}/{status['total']} "
            "jobs; resume the campaign for the full grid",
            file=sys.stderr,
        )
    print(f"Exported {len(result.iterations)} iteration(s) to {out}")
    if args.boxplot:
        servers = sorted({it.server for it in result.iterations})
        series = [
            (server, result.pooled_tick_durations(server))
            for server in servers
        ]
        print()
        print("Tick durations per server:")
        print(ascii_boxplot(series))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.dataset import load_dataset
    from repro.reporting.html import write_report
    from repro.reporting.spec import OutputSpec

    target_is_file = Path(args.target).is_file()
    spec = _load_spec(args.target)
    store = JobStore(spec.output_dir)
    if args.update_output:
        # Presentation-only manifest rewrite: the output: section is
        # outside the measurement fingerprint and ignored on resume.
        store.update_manifest_output(spec.output)
    dataset = load_dataset(store)
    # A spec-file target renders that file's (possibly edited) output:
    # section; a directory target renders what the manifest recorded.
    output_dict = spec.output if target_is_file else dataset.spec.get("output")
    output = OutputSpec.from_dict(output_dict)
    out_dir = Path(args.out) if args.out else store.report_dir
    written = write_report(dataset, output, out_dir=out_dir)
    hygiene = dataset.hygiene or {}
    print(
        f"Rendered {len(dataset.rows)} iteration(s) across "
        f"{dataset.completed_jobs}/{dataset.total_jobs} job(s) to "
        f"{written['html']}"
    )
    if hygiene:
        print(
            f"measurement hygiene: {hygiene.get('status', '?')} "
            f"({hygiene.get('warn_count', 0)} warning(s))"
        )
    if dataset.partial:
        print(
            "warning: partial campaign — the report covers only what has "
            "landed on disk; resume the campaign for the full matrix",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.tracing.chrome import render_campaign_trace

    if args.trace_command != "export":
        raise AssertionError(
            f"unhandled trace command {args.trace_command!r}"
        )
    spec = _load_spec(args.target)
    store = JobStore(spec.output_dir)
    manifest = store.read_manifest()
    if manifest is None:
        raise FileNotFoundError(
            f"no campaign manifest in {store.root}; run the campaign first"
        )
    document = render_campaign_trace(
        store, provenance=manifest.get("provenance")
    )
    out = (
        Path(args.out) if args.out else store.root / "export" / "trace.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document) + "\n")
    other = document["otherData"]
    print(
        f"Wrote {len(document['traceEvents'])} trace event(s) from "
        f"{other['traced_iterations']} traced iteration(s) across "
        f"{other['traced_jobs']}/{other['jobs']} job(s) to {out}"
    )
    # Collate the per-job flight-recorder dumps next to the trace.
    anomalies: list[dict] = []
    for job in sorted(store.manifest_jobs(), key=lambda j: j.index):
        anomalies.extend(store.read_job_anomalies(job.job_id))
    if anomalies:
        anomalies_out = out.with_name("anomalies.jsonl")
        anomalies_out.write_text(
            "\n".join(
                json.dumps(anomaly, sort_keys=True) for anomaly in anomalies
            )
            + "\n"
        )
        print(
            f"Wrote {len(anomalies)} slow-tick anomaly dump(s) to "
            f"{anomalies_out}"
        )
    if other["traced_iterations"] == 0:
        print(
            "note: no traced iterations found — run the campaign with "
            "trace: true in the spec",
            file=sys.stderr,
        )
    if other.get("client_processes"):
        print(
            f"Merged {other['client_span_lines']} client span(s) across "
            f"{other['client_processes']} client process(es)"
        )
    elif getattr(spec, "transport", "inproc") == "tcp":
        # A wire campaign without client streams would just render a
        # server-only timeline; say why the client side is missing
        # instead of leaving an unexplained empty half.
        print(
            "note: no client spans found — this is a wire campaign, so "
            "the timeline shows only the server side; re-run 'repro "
            "clients' with --trace-out "
            f"{store.telemetry_dir / 'clients.clientspans.jsonl'} to add "
            "per-client RTT tracks",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Lazy import: repro.net is the wall-clock/socket layer, loaded only
    # when wire serving is actually requested.
    from repro.net import serve_cell

    summary = serve_cell(
        args.spec,
        cell=args.cell,
        host=args.host,
        port=args.port,
        realtime=not args.no_realtime,
    )
    print(
        f"Served cell {summary['cell']} ({summary['job_id']}): "
        f"{summary['iterations']} iteration(s) → {summary['record']}"
    )
    return 1 if summary["crashed"] else 0


def _cmd_clients(args: argparse.Namespace) -> int:
    from repro.net import run_clients

    summary = run_clients(
        args.host,
        args.port,
        args.n,
        behavior=args.behavior,
        stagger_s=args.stagger_s,
        duration_s=args.duration_s,
        seed=args.seed,
        trace_out=args.trace_out,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    whole = summary["connected"] == args.n and not summary["protocol_errors"]
    return 0 if whole else 1


def _cmd_top(args: argparse.Namespace) -> int:
    # Lazy import: the dashboard is part of the obs plane, loaded only
    # when asked for.
    from repro.obs import run_top

    return run_top(args.target, interval_s=args.interval_s, once=args.once)


def _cmd_world(args: argparse.Namespace) -> int:
    from repro.persistence.warmup import (
        DEFAULT_PREPARE_RADIUS,
        inspect_world,
        prepare_world,
    )

    if args.world_command == "prepare":
        radius = (
            DEFAULT_PREPARE_RADIUS if args.radius is None else args.radius
        )
        report = prepare_world(
            args.out_dir,
            args.workload,
            scale=args.scale,
            seed=args.seed,
            radius=radius,
        )
        print(
            f"Prepared {report.workload!r} (scale {report.scale:g}, seed "
            f"{report.seed}) into {report.path}: {report.chunks} chunk(s), "
            f"{report.bytes_written / 1024:.1f} KiB, "
            f"hash {report.world_hash}, key {report.key}"
        )
        return 0
    if args.world_command == "inspect":
        info = inspect_world(args.world_dir)
        print(f"World directory {info['path']}")
        print(
            f"  {info['chunks']} chunk(s) in {info['regions']} region "
            f"file(s), {info['total_bytes'] / 1024:.1f} KiB on disk"
        )
        manifest = info["manifest"]
        key_note = f" (manifest key {manifest.get('key')})" if manifest else ""
        print(f"  content hash: {info['world_hash']}{key_note}")
        hash_mismatch = False
        if manifest:
            hash_mismatch = manifest.get("world_hash") != info["world_hash"]
            match = "DOES NOT MATCH" if hash_mismatch else "matches"
            print(
                f"  manifest: workload={manifest.get('workload')!r} "
                f"scale={manifest.get('scale')} seed={manifest.get('seed')} "
                f"(recorded hash {match})"
            )
        for name in info["corrupt_regions"]:
            print(f"  CORRUPT region: {name}")
        for entry in info["corrupt_entries"]:
            print(
                f"  CORRUPT chunk ({entry['cx']}, {entry['cz']}): "
                f"{entry['reason']}"
            )
        damaged = bool(
            info["corrupt_regions"] or info["corrupt_entries"]
        )
        return 1 if damaged or hash_mismatch else 0
    raise AssertionError(f"unhandled world command {args.world_command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, resume=False)
        if args.command == "resume":
            return _cmd_run(args, resume=True)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "clients":
            return _cmd_clients(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "world":
            return _cmd_world(args)
    except (FileNotFoundError, FileExistsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
