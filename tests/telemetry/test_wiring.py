"""Integration tests: telemetry wired through server, collectors,
results, and the campaign executor's streaming sidecars."""

import json

import numpy as np
import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import JobStore
from repro.core import IterationResult, run_iteration
from repro.core.collectors import (
    SAMPLE_INTERVAL_US,
    SystemMetricsCollector,
    tick_distribution,
)
from repro.metrics import instability_ratio
from repro.mlg.blocks import Block
from repro.mlg.constants import TICK_BUDGET_MS
from repro.mlg.server import MLGServer
from repro.mlg.world import World


class FixedMachine:
    throttled_executions = 0
    total_executions = 0
    credits_s = 0.0

    class spec:
        vcpus = 2

    def __init__(self, duration_us: int | None = None):
        self.duration_us = duration_us
        self.cpu_used_us = 0.0
        self.wall_observed_us = 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        duration = self.duration_us if self.duration_us else max(1, int(work_us))
        self.cpu_used_us += work_us
        self.wall_observed_us += duration
        return duration


def _flat_server(machine=None) -> MLGServer:
    world = World()
    chunk = world.ensure_chunk(0, 0)
    chunk.blocks[:, :, :60] = Block.STONE
    chunk.recompute_heightmap()
    return MLGServer(
        "vanilla",
        machine if machine is not None else FixedMachine(),
        world=world,
        seed=0,
    )


def naive_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


class TestServerTickTap:
    def test_snapshot_is_a_function_of_the_raw_series(self):
        server = _flat_server()
        records = server.run_for(5.0)
        raw = [r.duration_ms for r in records]
        tap = server.telemetry
        assert tap.tick_ms.tolist() == raw
        tick = tap.snapshot()
        assert tick["ticks"] == tick["tick_ms"]["count"] == len(raw)
        assert tick["tick_ms"]["mean"] == naive_mean(raw)  # bit-identical
        assert tick["tick_ms"]["min"] == min(raw)
        assert tick["tick_ms"]["max"] == max(raw)
        over = sum(1 for d in raw if d > TICK_BUDGET_MS) / len(raw)
        assert tick["tick_ms"]["frac_over_budget"] == over
        assert tick["overloaded_fraction"] == (
            sum(1 for r in records if r.overloaded) / len(raw)
        )

    def test_isr_is_the_trace_isr(self):
        server = _flat_server()
        records = server.run_for(5.0)
        raw_isr = instability_ratio(
            [r.duration_ms for r in records], TICK_BUDGET_MS
        )
        assert server.telemetry.snapshot()["isr"] == raw_isr

    def test_breakdown_totals_match_records(self):
        server = _flat_server()
        walked: dict[str, float] = {}
        for record in server.run_for(3.0):
            for bucket, us in record.breakdown_us.items():
                walked[bucket] = walked.get(bucket, 0.0) + us
        assert server.telemetry.bucket_totals_us == walked

    def test_distribution_shares_sum_to_one(self):
        server = _flat_server()
        server.run_for(2.0)
        shares = tick_distribution(server.telemetry)
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
        assert "Wait After" in shares


class TestSystemCollectorBacklog:
    def test_catch_up_samples_share_window_average(self):
        # One monster tick (~2.6 s) makes several samples due at once; the
        # delta must be attributed uniformly, not all-to-the-first.
        server = _flat_server(machine=FixedMachine(duration_us=2_600_000))
        collector = SystemMetricsCollector(server)
        server.start()
        server.tick()
        taken = collector.maybe_sample()
        assert taken >= 5
        utils = [s.cpu_utilization for s in collector.samples]
        assert len(set(utils)) == 1  # uniform attribution
        assert utils[0] > 0.0  # and not zeroed out
        # Timestamps still land on the 2 Hz grid.
        times = [s.t_us for s in collector.samples]
        assert all(
            b - a == SAMPLE_INTERVAL_US for a, b in zip(times, times[1:])
        )

    def test_summary_matches_raw(self):
        server = _flat_server()
        collector = SystemMetricsCollector(server)
        server.start()
        while server.clock.now_us < 3_000_000:
            server.tick()
            collector.maybe_sample()
        summary = collector.summary()
        cpu = [s.cpu_utilization for s in collector.samples]
        mem = [s.memory_bytes for s in collector.samples]
        assert summary["cpu_mean"] == naive_mean(cpu)
        assert summary["cpu_max"] == max(cpu)
        assert summary["memory_mean_mb"] == naive_mean(mem) / 1e6
        assert summary["samples"] == len(collector.samples)


class TestIterationTelemetry:
    # "lag" exercises the feedback-driven workload, which reads the
    # last tick record as the tap folds it.
    @pytest.mark.parametrize("workload", ["control", "lag"])
    def test_snapshot_agrees_with_raw_series(self, workload):
        result = run_iteration(
            workload, "vanilla", "das5-2core", duration_s=4.0, seed=3
        )
        raw = result.tick_durations_ms
        tick = result.telemetry["tick"]
        assert tick["ticks"] == tick["tick_ms"]["count"] == len(raw)
        assert tick["tick_ms"]["mean"] == naive_mean(raw)  # bit-identical
        assert tick["isr"] == result.isr
        responses = result.response_times_ms
        assert result.telemetry["response_ms"]["count"] == len(responses)
        if responses:
            assert result.telemetry["response_ms"]["mean"] == (
                naive_mean(responses)
            )

    def test_wire_cell_isr_is_the_iteration_isr(self, wire_cell):
        tick = wire_cell["line"]["telemetry"]["tick"]
        assert tick["isr"] == wire_cell["iteration"].isr
        assert tick["ticks"] == len(wire_cell["iteration"].tick_durations_ms)

    def test_telemetry_snapshot_contents(self):
        result = run_iteration(
            "control", "vanilla", "das5-2core", duration_s=4.0, seed=1
        )
        tick = result.telemetry["tick"]
        assert tick["ticks"] == len(result.tick_durations_ms)
        assert tick["tick_ms"]["p50"] > 0.0
        assert "windows" in tick and "breakdown_us" in tick
        assert result.telemetry["system"]["samples"] > 0
        assert result.telemetry["response_ms"]["count"] == len(
            result.response_times_ms
        )

    def test_json_round_trip_keeps_telemetry(self, tmp_path):
        from repro.core import ExperimentResult

        result = run_iteration(
            "control", "vanilla", "das5-2core", duration_s=2.0, seed=0
        )
        experiment = ExperimentResult(config={})
        experiment.iterations.append(result)
        path = experiment.save_json(tmp_path / "results.json")
        loaded = ExperimentResult.load_json(path)
        assert loaded.iterations[0].telemetry == result.telemetry

    def test_legacy_results_without_telemetry_still_load(self):
        result = IterationResult(
            server="vanilla",
            workload="control",
            environment="das5-2core",
            iteration=0,
            seed=0,
            duration_s=1.0,
            tick_durations_ms=[50.0, 60.0, 50.0],
            response_times_ms=[],
            tick_distribution={},
            packet_counts={},
            packet_bytes={},
            entity_message_share=0.0,
            entity_byte_share=0.0,
            system_summary={},
            crashed=False,
            crash_reason=None,
            throttled_ticks=0,
            final_credits_s=0.0,
        )
        assert result.telemetry == {}
        assert result.isr >= 0.0
        assert result.response_stats() is None


def _spec(tmp_path, name, jobs=1):
    return CampaignSpec.from_dict(
        {
            "name": "telemetry-test",
            "servers": ["vanilla"],
            "workloads": ["control"],
            "environments": ["das5-2core"],
            "iterations": 2,
            "duration_s": 1.5,
            "jobs": jobs,
            "output_dir": str(tmp_path / name),
        }
    )


class TestCampaignTelemetryRecords:
    def test_record_line_per_iteration(self, tmp_path):
        spec = _spec(tmp_path, "run")
        CampaignExecutor(spec).run()
        store = JobStore(spec.output_dir)
        job_id = next(iter(store.completed_ids()))
        lines = store.read_job_telemetry(job_id)
        assert [line["iteration"] for line in lines] == [0, 1]
        first = lines[0]
        assert first["job_id"] == job_id
        tick = first["telemetry"]["tick"]["tick_ms"]
        assert tick["p50"] > 0.0 and tick["count"] > 0
        assert "tail" not in tick  # telemetry carries summaries
        assert "steady" in first["telemetry"]["tick"]["windows"]
        # The line is the whole result: its series, and the ISR derived
        # from them, which is the tap's.
        assert len(first["tick_durations_ms"]) == tick["count"]
        assert first["isr"] == first["telemetry"]["tick"]["isr"]
        (iteration, _) = store.load_job(job_id)
        assert IterationResult.from_dict(first) == iteration

    def test_serial_parallel_records_bit_identical(self, tmp_path):
        serial = _spec(tmp_path, "serial", jobs=1)
        parallel = _spec(tmp_path, "parallel", jobs=2)
        # Two cells so the parallel pool actually fans out.
        for spec in (serial, parallel):
            spec.servers = ["vanilla", "papermc"]
        CampaignExecutor(serial).run()
        CampaignExecutor(parallel).run()
        serial_dir = JobStore(serial.output_dir).telemetry_dir
        parallel_dir = JobStore(parallel.output_dir).telemetry_dir
        serial_files = sorted(p.name for p in serial_dir.iterdir())
        assert serial_files == sorted(p.name for p in parallel_dir.iterdir())
        assert len(serial_files) == 2
        for name in serial_files:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes()

    def test_status_reports_live_telemetry(self, tmp_path):
        spec = _spec(tmp_path, "status")
        CampaignExecutor(spec).run()
        status = JobStore(spec.output_dir).status()
        entry = status["jobs"][0]
        assert entry["state"] == "done"
        assert entry["iterations_done"] == 2
        assert entry["telemetry"]["iteration"] == 1
        assert status["running"] == 0

    def test_inflight_job_shows_running(self, tmp_path):
        spec = _spec(tmp_path, "inflight")
        CampaignExecutor(spec).run()
        store = JobStore(spec.output_dir)
        job_id = next(iter(store.completed_ids()))
        # Simulate a killed campaign: iterations streamed, the commit
        # line not yet written, plus a torn trailing line from the dying
        # worker.
        record = store.telemetry_path(job_id)
        *iteration_lines, _commit = record.read_bytes().splitlines(True)
        record.write_bytes(b"".join(iteration_lines) + b'{"iteration": 2, "tor')
        status = store.status()
        entry = status["jobs"][0]
        assert entry["state"] == "running"
        assert entry["iterations_done"] == 2  # torn line skipped
        assert status["running"] == 1

    def test_resume_rewrites_record(self, tmp_path):
        spec = _spec(tmp_path, "resume")
        CampaignExecutor(spec).run()
        store = JobStore(spec.output_dir)
        job_id = next(iter(store.completed_ids()))
        original = store.telemetry_path(job_id).read_bytes()
        store.telemetry_path(job_id).write_text("garbage\n")
        CampaignExecutor(spec).run(resume=True)
        assert store.telemetry_path(job_id).read_bytes() == original
