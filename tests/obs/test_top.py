"""``repro top``: frame rendering and both polling targets."""

import io
import json

import pytest

from repro.campaign import CampaignSpec, JobPlanner, JobStore
from repro.obs import ObsHttpServer, render_top, run_top, telemetry_obs_snapshot


def sample_doc(**meta) -> dict:
    snap = telemetry_obs_snapshot(
        {
            "tick": {
                "ticks": 1234,
                "isr": 0.3,
                "overloaded_fraction": 0.05,
                "entities_last": 80,
                "entities_peak": 95,
                "breakdown_us": {"redstone": 700.0, "fluids": 300.0},
                "tick_ms": {
                    "mean": 10.0,
                    "p50": 9.0,
                    "p95": 20.0,
                    "p99": 31.0,
                    "max": 40.0,
                    "cov": 0.5,
                },
            },
            "response_ms": {"count": 17, "p50": 25.0, "p99": 70.0},
        },
        meta=meta or None,
    )
    return {"meta": snap.meta, "metrics": snap.values}


class TestRenderTop:
    def test_frame_carries_headline_numbers(self):
        frame = render_top(sample_doc(campaign="tiny"), source="out/")
        assert "repro top — tiny  [out/]" in frame
        assert "ticks 1,234" in frame
        assert "p50 9.0ms" in frame
        assert "p99 31.0ms" in frame
        assert "ISR 0.3000" in frame
        assert "overloaded 5.0%" in frame
        assert "responses 17" in frame

    def test_phase_buckets_ranked_by_share(self):
        frame = render_top(sample_doc())
        redstone = frame.index("redstone")
        fluids = frame.index("fluids")
        assert redstone < fluids
        assert "70.0%" in frame and "30.0%" in frame

    def test_hygiene_banner(self):
        doc = sample_doc(
            campaign="tiny", hygiene={"status": "warn", "warn_count": 2}
        )
        assert "HYGIENE: WARN (2 warning(s))" in render_top(doc)
        doc = sample_doc(campaign="tiny", hygiene={"status": "pass"})
        assert "hygiene: PASS" in render_top(doc)

    def test_wire_and_campaign_rows_only_when_present(self):
        frame = render_top(sample_doc())
        assert "wire in" not in frame
        assert "jobs " not in frame


class TestRunTop:
    def test_polls_an_endpoint_url(self):
        snap = telemetry_obs_snapshot(
            {
                "tick": {"ticks": 5, "tick_ms": {}},
                "response_ms": {},
            },
            meta={"cell": "vanilla/players/das5/3"},
        )
        server = ObsHttpServer(lambda: snap, port=0).start()
        try:
            out = io.StringIO()
            code = run_top(server.url, once=True, out=out)
        finally:
            server.stop(grace_s=0)
        assert code == 0
        assert "ticks 5" in out.getvalue()
        assert "vanilla/players/das5/3" in out.getvalue()

    def test_unreachable_endpoint_renders_not_crashes(self):
        out = io.StringIO()
        code = run_top("http://127.0.0.1:1/metrics", once=True, out=out)
        assert code == 0
        assert "unreachable" in out.getvalue()

    def test_follows_a_campaign_directory(self, tmp_path):
        spec = CampaignSpec(
            name="topdir",
            servers=["vanilla"],
            workloads=["control"],
            environments=["das5-2core"],
            iterations=2,
            duration_s=1.0,
            seed=3,
            output_dir=str(tmp_path / "out"),
        )
        plan = JobPlanner(spec).plan()
        store = JobStore(spec.output_dir)
        store.write_manifest(
            spec,
            plan,
            provenance={"hygiene": {"status": "pass", "warn_count": 0}},
        )
        store.telemetry_dir.mkdir(parents=True, exist_ok=True)
        line = {
            "job_id": plan[0].job_id,
            "cell": plan[0].cell.key(),
            "iteration": 0,
            "tick_durations_ms": [8.0] * 99,
            "response_times_ms": [20.0],
            "telemetry": {
                "tick": {
                    "ticks": 99,
                    "isr": 0.0,
                    "entities_last": 5,
                    "entities_peak": 5,
                    "breakdown_us": {},
                },
                "response_ms": {},
            },
        }
        store.telemetry_path(plan[0].job_id).write_text(
            json.dumps(line) + "\n"
        )
        out = io.StringIO()
        code = run_top(
            str(store.root), interval_s=0.01, max_polls=2, out=out
        )
        assert code == 0
        frame = out.getvalue()
        assert "repro top — topdir" in frame
        assert "hygiene: PASS" in frame
        assert f"cell {plan[0].cell.key()}\nticks 99   p50 8.0ms" in frame
        assert f"jobs 1/{len(plan)} observed   iterations 1" in frame

    def test_directory_without_manifest_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            run_top(str(tmp_path), once=True, out=io.StringIO())
