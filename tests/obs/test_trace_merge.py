"""Merged Perfetto export: client span pids alongside server job pids."""

import json

import pytest

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore
from repro.tracing.chrome import (
    CLIENT_SPAN_SUFFIX,
    CLIENT_TIDS,
    client_span_events,
    read_client_spans,
    render_campaign_trace,
)
from repro.tracing.tracer import decode_ticks


@pytest.fixture(scope="module")
def merged_store(tmp_path_factory):
    """One traced server job plus a fabricated 2-client span stream.

    The client span records reuse the server's own traced tick ids and
    simulated timestamps, exactly as a live ``repro clients --trace-out``
    fleet would have observed them from the TICK frames.
    """
    root = tmp_path_factory.mktemp("merged-trace")
    spec = CampaignSpec(
        name="merged",
        servers=["vanilla"],
        workloads=["players"],
        iterations=1,
        duration_s=1.0,
        seed=19,
        trace=True,
        output_dir=str(root / "out"),
    )
    store = JobStore(spec.output_dir)
    CampaignExecutor(spec, store=store).run()
    job = store.manifest_jobs()[0]
    columns = store.load_job(job.job_id)[0].telemetry["trace"]["ticks"]
    ticks = list(decode_ticks(columns))
    spans = []
    for client in range(2):
        for dump in ticks[:2]:
            spans.append(
                {
                    "client": client,
                    "tick": dump["tick"],
                    "now_us": dump["start_us"],
                    "wait_us": 40000.0,
                    "dispatch_us": 120.0,
                    "step_us": 300.0,
                    "drain_us": 15.0,
                }
            )
    store.telemetry_dir.mkdir(parents=True, exist_ok=True)
    (store.telemetry_dir / f"fleet{CLIENT_SPAN_SUFFIX}").write_text(
        "\n".join(json.dumps(span, sort_keys=True) for span in spans) + "\n"
    )
    return store, ticks


class TestMergedExport:
    def test_at_least_two_pids_with_aligned_spans(self, merged_store):
        store, ticks = merged_store
        doc = render_campaign_trace(store)
        pids = {
            e["pid"] for e in doc["traceEvents"] if e.get("ph") == "X"
        }
        assert len(pids) >= 2  # the server job + the client processes
        assert doc["otherData"]["client_processes"] == 2
        assert doc["otherData"]["client_span_lines"] == 4
        # Tick-id alignment: a client "step" span starts exactly at the
        # server tick's simulated timestamp for the same tick id.
        steps = [
            e
            for e in doc["traceEvents"]
            if e.get("cat") == "client" and e["name"] == "step"
        ]
        starts = {dump["tick"]: dump["start_us"] for dump in ticks[:2]}
        assert steps
        for event in steps:
            assert event["ts"] == pytest.approx(starts[event["args"]["tick"]])

    def test_client_processes_named_after_stream_and_index(self, merged_store):
        store, _ = merged_store
        events = render_campaign_trace(store)["traceEvents"]
        names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert "client fleet#0" in names
        assert "client fleet#1" in names
        # Phase tracks are named on every client pid.
        thread_names = {
            e["args"]["name"]
            for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert set(CLIENT_TIDS) <= thread_names

    def test_client_pids_follow_job_pids(self, merged_store):
        store, _ = merged_store
        events = render_campaign_trace(store)["traceEvents"]
        job_pids = {
            e["pid"] for e in events if e.get("cat") in ("tick", "iteration")
        }
        client_pids = {e["pid"] for e in events if e.get("cat") == "client"}
        assert max(job_pids) < min(client_pids)


class TestClientSpanHelpers:
    def test_read_skips_corrupt_lines(self, tmp_path):
        store = JobStore(tmp_path / "out")
        store.telemetry_dir.mkdir(parents=True, exist_ok=True)
        (store.telemetry_dir / f"x{CLIENT_SPAN_SUFFIX}").write_text(
            '{"client": 0, "tick": 1, "now_us": 5}\n{torn'
        )
        streams = read_client_spans(store)
        assert list(streams) == ["x"]
        assert len(streams["x"]) == 1

    def test_phases_tile_around_the_tick_timestamp(self):
        line = {
            "client": 0,
            "tick": 7,
            "now_us": 1000.0,
            "wait_us": 100.0,
            "dispatch_us": 50.0,
            "step_us": 20.0,
            "drain_us": 0.0,  # zero-width phases are dropped
        }
        events = client_span_events([line], pid=9)
        by_name = {e["name"]: e for e in events}
        assert set(by_name) == {"wait", "dispatch", "step"}
        assert by_name["wait"]["ts"] == 850.0
        assert by_name["dispatch"]["ts"] == 950.0
        assert by_name["step"]["ts"] == 1000.0
        assert all(e["pid"] == 9 for e in events)
