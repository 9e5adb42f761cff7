"""Chrome trace-event rendering for campaign traces.

``repro trace export`` turns the span dumps each traced iteration filed
under ``telemetry["trace"]`` — read from the iteration lines of the job
records (``telemetry/<job>.jsonl``) — into the Chrome trace-event JSON
format, so a campaign opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

- one **process** per campaign job (named after its matrix cell),
- one **track** (thread) per subsystem span name — redstone, fluids,
  lifecycle/autosave, broadcast, … — plus a ``job`` track carrying the
  per-iteration extents,
- each job additionally rendered as an **async span** (``b``/``e``
  events keyed by job id) covering its first-to-last traced tick,
- slow-tick flight-recorder dumps as **instant** events on the job
  track.

Timestamps are the simulation's own microseconds.  Span costs are
simulated work-µs while the tick's wall duration includes machine-model
noise, so each tick's spans are tiled proportionally across its wall
duration: nesting, ordering, and relative width are exact; absolute
per-span wall time is an attribution, not a measurement.

Wire campaigns add **client processes**: ``repro clients --trace-out``
streams one span record per (client, tick) into
``telemetry/*.clientspans.jsonl``, and each client renders as its own
pid with wait/dispatch/step/drain tracks.  Client spans carry the
server's simulated ``now_us`` from the TICK frame that closed them, so
client and server tracks share one timeline, aligned tick id by
tick id.
"""

from __future__ import annotations

import json

from repro.tracing.tracer import decode_ticks

__all__ = [
    "client_span_events",
    "read_client_spans",
    "render_campaign_trace",
    "tick_events",
]

#: Reserved thread id for the per-job iteration/anomaly track.
JOB_TID = 0

#: Client span streams ``repro trace export`` merges as client pids.
CLIENT_SPAN_SUFFIX = ".clientspans.jsonl"

#: Client-process track layout: phase name -> thread id.
CLIENT_TIDS = {"wait": 1, "dispatch": 2, "step": 3, "drain": 4}


def tick_events(dump: dict, pid: int, tid_of) -> list[dict]:
    """Render one traced tick's compact span dump as complete events.

    ``dump`` is one tick :func:`~repro.tracing.tracer.decode_ticks`
    reads from a trace snapshot's ``ticks`` columns.  Spans
    arrive in pre-order with depths; a cursor stack tiles each span into
    its parent's extent (children start at the parent's start and
    consume its width left to right), scaled so the tick's top-level
    spans exactly fill its wall duration.
    """
    spans = dump["spans"]
    top_us = sum(span["us"] for span in spans if span["d"] == 1)
    scale = dump["duration_us"] / top_us if top_us > 0 else 0.0
    events: list[dict] = []
    # Stack of [depth, cursor]: cursor is where the next span one level
    # deeper (or the next sibling at that level) starts.
    stack: list[list[float]] = [[0, float(dump["start_us"])]]
    for span in spans:
        depth = span["d"]
        while stack[-1][0] >= depth:
            stack.pop()
        ts = stack[-1][1]
        width = span["us"] * scale
        stack[-1][1] = ts + width
        args = {"cost_us": span["us"], "tick": dump["tick"]}
        if span.get("args"):
            args.update(span["args"])
        events.append(
            {
                "name": span["n"],
                "cat": "tick",
                "ph": "X",
                "ts": ts,
                "dur": width,
                "pid": pid,
                "tid": tid_of(span["n"]),
                "args": args,
            }
        )
        stack.append([depth, ts])
    return events


def read_client_spans(store) -> dict[str, list[dict]]:
    """Client span streams in ``store``'s telemetry dir, by stream name.

    A stream is one ``repro clients --trace-out`` run
    (``<name>.clientspans.jsonl``); torn or corrupt lines are skipped
    exactly like the job records' are.
    """
    telemetry_dir = store.telemetry_dir
    if not telemetry_dir.is_dir():
        return {}
    streams: dict[str, list[dict]] = {}
    for path in sorted(telemetry_dir.glob(f"*{CLIENT_SPAN_SUFFIX}")):
        lines: list[dict] = []
        for raw in path.read_text().splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                lines.append(json.loads(raw))
            except json.JSONDecodeError:
                continue  # torn write from a killed client
        if lines:
            streams[path.name[: -len(CLIENT_SPAN_SUFFIX)]] = lines
    return streams


def client_span_events(lines: list[dict], pid: int) -> list[dict]:
    """Render one client's span records as complete events.

    Each record decomposes one tick cycle's wall time; the phases are
    laid out around the TICK frame's simulated timestamp (wait and
    dispatch end at the tick, step and drain follow it), each on its own
    track, so the client's RTT anatomy lines up under the server's tick
    that produced it.
    """
    events: list[dict] = []
    for line in lines:
        now_us = float(line.get("now_us", 0))
        tick = line.get("tick")
        durations = {
            phase: float(line.get(f"{phase}_us", 0.0)) for phase in CLIENT_TIDS
        }
        starts = {
            "wait": now_us - durations["wait"] - durations["dispatch"],
            "dispatch": now_us - durations["dispatch"],
            "step": now_us,
            "drain": now_us + durations["step"],
        }
        for phase, tid in CLIENT_TIDS.items():
            if durations[phase] <= 0:
                continue
            events.append(
                {
                    "name": phase,
                    "cat": "client",
                    "ph": "X",
                    "ts": starts[phase],
                    "dur": durations[phase],
                    "pid": pid,
                    "tid": tid,
                    "args": {"tick": tick, "client": line.get("client")},
                }
            )
    return events


def _metadata(pid: int, tid: int | None, name: str) -> dict:
    event: dict = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def render_campaign_trace(store, provenance: dict | None = None) -> dict:
    """Render every traced iteration in ``store`` to trace JSON.

    ``store`` is a :class:`~repro.campaign.store.JobStore`; every
    iteration line its records hold is rendered, so a running job shows
    the iterations it has finished, and iterations without trace
    telemetry (``trace=False``) are skipped.  Returns the full trace
    document — ``traceEvents`` plus ``otherData`` carrying the campaign
    provenance and coverage counts.
    """
    events: list[dict] = []
    jobs = sorted(store.manifest_jobs(), key=lambda job: job.index)
    traced_jobs = 0
    traced_iterations = 0
    for pid, job in enumerate(jobs, start=1):
        tids: dict[str, int] = {}

        def tid_of(name: str, _tids=tids) -> int:
            if name not in _tids:
                _tids[name] = len(_tids) + 1  # JOB_TID stays reserved
            return _tids[name]

        job_start: float | None = None
        job_end: float | None = None
        for line in store.read_job_telemetry(job.job_id):
            trace = line["telemetry"].get("trace") or {}
            if not trace.get("enabled"):
                continue
            try:
                ticks = list(decode_ticks(trace["ticks"]))
            except ValueError as exc:
                raise ValueError(f"job {job.job_id}: {exc}") from None
            if not ticks:
                continue
            traced_iterations += 1
            it_start = float(ticks[0]["start_us"])
            it_end = float(
                ticks[-1]["start_us"] + ticks[-1]["duration_us"]
            )
            job_start = (
                it_start if job_start is None else min(job_start, it_start)
            )
            job_end = it_end if job_end is None else max(job_end, it_end)
            events.append(
                {
                    "name": f"iteration {line['iteration']}",
                    "cat": "iteration",
                    "ph": "X",
                    "ts": it_start,
                    "dur": it_end - it_start,
                    "pid": pid,
                    "tid": JOB_TID,
                    "args": {
                        "iteration": line["iteration"],
                        "seed": line["seed"],
                        "ticks_seen": trace.get("ticks_seen"),
                        "slow_ticks": trace.get("slow_ticks"),
                    },
                }
            )
            for dump in ticks:
                events.extend(tick_events(dump, pid, tid_of))
            for anomaly in trace.get("anomalies") or []:
                events.append(
                    {
                        "name": "slow tick",
                        "cat": "anomaly",
                        "ph": "i",
                        "s": "p",
                        "ts": float(
                            anomaly["start_us"] + anomaly["duration_us"]
                        ),
                        "pid": pid,
                        "tid": JOB_TID,
                        "args": {
                            "tick": anomaly["tick"],
                            "duration_us": anomaly["duration_us"],
                            "factor": anomaly["factor"],
                        },
                    }
                )
        if job_start is None:
            continue
        traced_jobs += 1
        cell = job.cell.key()
        events.append(_metadata(pid, None, f"{job.job_id} {cell}"))
        events.append(_metadata(pid, JOB_TID, "job"))
        for name, tid in tids.items():
            events.append(_metadata(pid, tid, name))
        # The whole job as one async span: Perfetto draws these as a
        # global band, which is how overlapping jobs line up at a glance.
        for ph, ts in (("b", job_start), ("e", job_end)):
            events.append(
                {
                    "name": cell,
                    "cat": "job",
                    "ph": ph,
                    "id": job.job_id,
                    "ts": ts,
                    "pid": pid,
                    "tid": JOB_TID,
                }
            )
    # Client processes, one pid per (span stream, client index), after
    # the job pids.
    client_processes = 0
    client_span_lines = 0
    next_pid = len(jobs) + 1
    streams = read_client_spans(store)
    for stream in sorted(streams):
        by_client: dict[int, list[dict]] = {}
        for line in streams[stream]:
            by_client.setdefault(int(line.get("client", 0)), []).append(line)
        for client in sorted(by_client):
            pid = next_pid
            next_pid += 1
            client_processes += 1
            client_span_lines += len(by_client[client])
            events.append(_metadata(pid, None, f"client {stream}#{client}"))
            for phase, tid in CLIENT_TIDS.items():
                events.append(_metadata(pid, tid, phase))
            events.extend(client_span_events(by_client[client], pid))
    other: dict = {
        "jobs": len(jobs),
        "traced_jobs": traced_jobs,
        "traced_iterations": traced_iterations,
        "client_processes": client_processes,
        "client_span_lines": client_span_lines,
    }
    if provenance is not None:
        other["provenance"] = provenance
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }
