"""Chrome trace-event export: schema validity, span tiling, and the
``repro trace export`` CLI path."""

import json
import shutil
from types import SimpleNamespace

import pytest

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore
from repro.campaign.cli import main as cli_main
from repro.tracing.chrome import JOB_TID, render_campaign_trace, tick_events
from repro.tracing.tracer import decode_ticks, tick_columns

#: Phases every X event must carry (trace-event format requirements).
_X_REQUIRED = ("name", "ph", "ts", "dur", "pid", "tid")


def _span(name, depth, cost_us, args=None):
    """A closed span as the tracer's ring holds it."""
    return SimpleNamespace(name=name, depth=depth, cost_us=cost_us, args=args)


def _one_tick(spans):
    """One exported tick, as a snapshot's columns carry it, decoded."""
    columns = tick_columns(
        [
            {
                "tick": 4,
                "start_us": 1_000,
                "duration_us": 60_000,
                "work_us": 30_000.0,
                "spans": spans,
            }
        ]
    )
    (dump,) = decode_ticks(json.loads(json.dumps(columns)))
    return dump


def _tiled(dump):
    return tick_events(dump, pid=1, tid_of=lambda name: 7)


class TestTickTiling:
    DUMP = _one_tick(
        [
            _span("players", 1, 10_000.0),
            _span("lifecycle", 1, 20_000.0),
            _span("autosave", 2, 15_000.0),
            _span("broadcast", 1, 0.0),
        ]
    )

    def test_top_level_spans_tile_the_wall_duration(self):
        events = _tiled(self.DUMP)
        top = [e for e, s in zip(events, self.DUMP["spans"]) if s["d"] == 1]
        assert sum(e["dur"] for e in top) == pytest.approx(60_000)
        # Contiguous left-to-right tiling from the tick start.
        cursor = 1_000.0
        for event in top:
            assert event["ts"] == pytest.approx(cursor)
            cursor += event["dur"]

    def test_children_nest_inside_their_parent(self):
        events = _tiled(self.DUMP)
        parent = events[1]
        child = events[2]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-9
        # Proportional width: the child is 15k of the parent's 20k µs.
        assert child["dur"] == pytest.approx(parent["dur"] * 0.75)

    def test_zero_work_tick_renders_zero_width(self):
        dump = _one_tick([_span("begin", 1, 0.0)])
        (event,) = _tiled(dump)
        assert event["dur"] == 0.0

    def test_span_args_ride_into_event_args(self):
        dump = _one_tick([_span("pricing", 1, 5.0, {"work_us": 5.0})])
        (event,) = _tiled(dump)
        assert event["args"]["work_us"] == 5.0
        assert event["args"]["tick"] == 4


@pytest.fixture(scope="module")
def traced_store(tmp_path_factory):
    root = tmp_path_factory.mktemp("traced-campaign")
    spec = CampaignSpec(
        name="chrome",
        servers=["vanilla", "papermc"],
        workloads=["players"],  # heavy enough to trip the recorder
        iterations=1,
        duration_s=2.0,
        seed=13,
        trace=True,
        slow_tick_factor=0.5,  # force flight-recorder instants
        output_dir=str(root / "out"),
    )
    store = JobStore(spec.output_dir)
    CampaignExecutor(spec, store=store).run()
    return spec, store


class TestRenderCampaign:
    def test_document_is_valid_trace_json(self, traced_store):
        _, store = traced_store
        doc = render_campaign_trace(store, provenance={"fingerprint": "f" * 64})
        # Round-trips through JSON (Perfetto reads the serialized form).
        doc = json.loads(json.dumps(doc))
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["jobs"] == 2
        assert doc["otherData"]["traced_jobs"] == 2
        assert doc["otherData"]["provenance"]["fingerprint"] == "f" * 64
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "M", "b", "e", "i")
            if event["ph"] == "X":
                for key in _X_REQUIRED:
                    assert key in event

    def test_tracks_jobs_and_anomalies(self, traced_store):
        _, store = traced_store
        events = render_campaign_trace(store)["traceEvents"]
        by_ph = {}
        for event in events:
            by_ph.setdefault(event["ph"], []).append(event)
        # One async begin/end pair per traced job.
        assert len(by_ph["b"]) == 2
        assert len(by_ph["e"]) == 2
        assert {e["id"] for e in by_ph["b"]} == {
            job.job_id for job in store.manifest_jobs()
        }
        # Process/thread naming metadata: every pid names its process,
        # JOB_TID is the reserved job track, spans get distinct tids.
        process_names = [
            e for e in by_ph["M"] if e["name"] == "process_name"
        ]
        assert len(process_names) == 2
        assert all(
            e["tid"] != JOB_TID
            for e in by_ph["M"]
            if e["name"] == "thread_name" and e["args"]["name"] != "job"
        )
        # slow_tick_factor=0.5 guarantees anomaly instants.
        assert by_ph["i"]
        assert all(e["s"] == "p" for e in by_ph["i"])

    def test_span_events_reconcile_with_tick_walls(self, traced_store):
        _, store = traced_store
        job = store.manifest_jobs()[0]
        iteration = store.load_job(job.job_id)[0]
        ticks = list(decode_ticks(iteration.telemetry["trace"]["ticks"]))
        events = render_campaign_trace(store)["traceEvents"]
        for dump in ticks[:20]:
            top = [
                e
                for e in events
                if e["ph"] == "X"
                and e["cat"] == "tick"
                and e["pid"] == 1
                and e["args"]["tick"] == dump["tick"]
                and any(
                    s["d"] == 1 and s["n"] == e["name"]
                    for s in dump["spans"]
                )
            ]
            assert sum(e["dur"] for e in top) == pytest.approx(
                dump["duration_us"]
            )

    def test_untraced_campaign_renders_empty(self, tmp_path):
        spec = CampaignSpec(
            name="untraced",
            servers=["vanilla"],
            iterations=1,
            duration_s=1.0,
            output_dir=str(tmp_path / "out"),
        )
        store = JobStore(spec.output_dir)
        CampaignExecutor(spec, store=store).run()
        doc = render_campaign_trace(store)
        assert doc["otherData"]["traced_jobs"] == 0
        assert doc["traceEvents"] == []


class TestCli:
    def test_trace_export_writes_trace_and_anomalies(self, traced_store):
        spec, store = traced_store
        rc = cli_main(["trace", "export", str(store.root)])
        assert rc == 0
        out_dir = store.root / "export"
        doc = json.loads((out_dir / "trace.json").read_text())
        assert doc["otherData"]["traced_jobs"] == 2
        assert doc["otherData"]["provenance"]["fingerprint"]
        anomaly_lines = [
            json.loads(line)
            for line in (out_dir / "anomalies.jsonl")
            .read_text()
            .splitlines()
        ]
        assert anomaly_lines
        assert all("job_id" in line for line in anomaly_lines)

    def test_trace_export_refuses_list_form_ticks(
        self, traced_store, tmp_path, capsys
    ):
        # A record from before the column layout: the same line with its
        # ticks rewritten as the list of per-tick dicts they used to be.
        _, store = traced_store
        copy = tmp_path / "copy"
        shutil.copytree(
            store.root, copy, ignore=shutil.ignore_patterns("export")
        )
        job = JobStore(copy).manifest_jobs()[0]
        path = JobStore(copy).telemetry_path(job.job_id)
        first, *rest = path.read_text().splitlines()
        line = json.loads(first)
        trace = line["telemetry"]["trace"]
        trace["ticks"] = list(decode_ticks(trace["ticks"]))
        first = json.dumps(line, sort_keys=True)
        path.write_text("\n".join([first, *rest]) + "\n")
        assert cli_main(["trace", "export", str(copy)]) == 2
        err = capsys.readouterr().err
        assert f"job {job.job_id}: trace.ticks is a list" in err
        assert not (copy / "export" / "trace.json").exists()
