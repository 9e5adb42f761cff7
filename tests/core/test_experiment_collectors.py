"""Tests for the experiment runner, collectors, results, and retrieval."""

import json

import numpy as np
import pytest

from repro.core import (
    ExperimentRunner,
    IterationResult,
    MeterstickConfig,
    SystemMetricsCollector,
    non_wait_shares,
    retrieve,
    run_iteration,
    summary_rows,
    tick_distribution,
)
from repro.core.collectors import SAMPLE_INTERVAL_US
from repro.mlg.blocks import Block
from repro.mlg.server import MLGServer
from repro.mlg.world import World


class FixedMachine:
    throttled_executions = 0
    total_executions = 0
    cpu_used_us = 0.0
    wall_observed_us = 0.0
    credits_s = 0.0
    class spec:  # minimal spec surface for the collector
        vcpus = 2

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        self.cpu_used_us += work_us
        self.wall_observed_us += work_us
        return max(1, int(work_us))


def _flat_server():
    world = World()
    world.fill(0, 0, 0, 15, 59, 15, Block.STONE)
    return MLGServer("vanilla", FixedMachine(), world=world, seed=0)


class TestCollectors:
    def test_tap_keeps_tick_durations(self):
        server = _flat_server()
        server.run_for(1.0)
        assert len(server.telemetry.tick_ms) == 20

    def test_tick_distribution_shares_sum_to_one(self):
        server = _flat_server()
        server.run_for(2.0)
        shares = tick_distribution(server.telemetry)
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
        assert "Wait After" in shares
        assert "Wait Before" in shares

    def test_idle_server_mostly_waits(self):
        server = _flat_server()
        server.run_for(2.0)
        shares = tick_distribution(server.telemetry)
        assert shares["Wait After"] > 0.8

    def test_non_wait_shares_renormalize(self):
        server = _flat_server()
        server.run_for(2.0)
        active = non_wait_shares(tick_distribution(server.telemetry))
        assert sum(active.values()) == pytest.approx(1.0, abs=1e-6)
        assert all(not k.startswith("Wait") for k in active)

    def test_system_collector_samples_at_2hz(self):
        server = _flat_server()
        collector = SystemMetricsCollector(server)
        server.start()
        while server.clock.now_us < 3_000_000:
            server.tick()
            collector.maybe_sample()
        expected = 3_000_000 // SAMPLE_INTERVAL_US
        assert abs(len(collector.samples) - expected) <= 1

    def test_system_sample_fields(self):
        server = _flat_server()
        collector = SystemMetricsCollector(server)
        server.start()
        for _ in range(30):
            server.tick()
            collector.maybe_sample()
        sample = collector.samples[-1]
        assert 0.0 <= sample.cpu_utilization <= 1.0
        assert sample.memory_bytes > 500e6  # base JVM heap
        assert sample.threads == 26
        summary = collector.summary()
        assert summary["samples"] == len(collector.samples)


class TestRunIteration:
    def test_single_iteration_produces_complete_result(self):
        result = run_iteration(
            "control", "vanilla", "das5-2core", duration_s=5.0, seed=1
        )
        assert result.server == "vanilla"
        assert result.workload == "control"
        assert len(result.tick_durations_ms) >= 90
        assert result.response_times_ms  # the observer probes chat
        assert 0.0 <= result.isr <= 1.0
        assert result.entity_message_share > 0.5
        assert not result.crashed
        assert result.tick_distribution

    def test_deterministic_given_seed(self):
        a = run_iteration("control", "vanilla", "das5-2core", 5.0, seed=9)
        b = run_iteration("control", "vanilla", "das5-2core", 5.0, seed=9)
        assert a.tick_durations_ms == b.tick_durations_ms
        assert a.response_times_ms == b.response_times_ms

    def test_different_seeds_differ(self):
        a = run_iteration("control", "vanilla", "das5-2core", 5.0, seed=1)
        b = run_iteration("control", "vanilla", "das5-2core", 5.0, seed=2)
        assert a.tick_durations_ms != b.tick_durations_ms


class TestExperimentRunner:
    def test_campaign_runs_servers_times_iterations(self):
        config = MeterstickConfig(
            servers=["vanilla", "papermc"],
            world="control",
            environment="das5-2core",
            duration_s=3.0,
            iterations=2,
            seed=5,
        )
        result = ExperimentRunner(config).run()
        assert len(result.iterations) == 4
        assert len(result.for_server("vanilla")) == 2
        assert result.for_server("papermc")[1].iteration == 1

    def test_isr_values_and_pooling(self):
        config = MeterstickConfig(
            servers=["vanilla"], world="control",
            environment="das5-2core", duration_s=3.0, iterations=2,
        )
        result = ExperimentRunner(config).run()
        assert len(result.isr_values("vanilla")) == 2
        pooled = result.pooled_tick_durations("vanilla")
        total = sum(
            len(it.tick_durations_ms) for it in result.iterations
        )
        assert len(pooled) == total

    def test_warm_machines_drain_credits(self):
        config = MeterstickConfig(
            servers=["vanilla"], world="control",
            environment="aws-t3.large", duration_s=2.0,
            warm_machines=True,
        )
        result = ExperimentRunner(config).run()
        assert result.iterations[0].final_credits_s < 25.0


class TestResultsExport:
    def _result(self):
        config = MeterstickConfig(
            servers=["vanilla"], world="control",
            environment="das5-2core", duration_s=2.0, iterations=1,
        )
        return ExperimentRunner(config).run()

    def test_json_round_trip(self, tmp_path):
        result = self._result()
        path = result.save_json(tmp_path / "results.json")
        (loaded,) = json.loads(path.read_text())["iterations"]
        assert IterationResult.from_dict(loaded).isr == pytest.approx(
            result.iterations[0].isr
        )

    def test_summary_rows_shape(self):
        result = self._result()
        rows = summary_rows(result)
        assert len(rows) == 1
        assert rows[0][0] == "vanilla"
        assert isinstance(rows[0][4], float)  # isr

    def test_retrieve_writes_layout(self, tmp_path):
        result = self._result()
        out = retrieve(result, tmp_path / "out")
        assert (out / "summary.csv").exists()
        assert (out / "results.json").exists()
        assert (out / "vanilla" / "iter0_ticks.csv").exists()
        assert (out / "vanilla" / "iter0_responses.csv").exists()
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert "isr" in header

    def test_json_is_valid_and_self_describing(self, tmp_path):
        result = self._result()
        path = result.save_json(tmp_path / "results.json")
        payload = json.loads(path.read_text())
        assert payload["config"]["world"] == "control"
        assert payload["iterations"][0]["isr"] >= 0.0


class NullFleet:
    """What ``workload.install`` sees when the players live elsewhere."""

    def add_bot(self, *args, **kwargs):
        pass

    add_observer = add_player_workload = add_bot


class StubWireDrive:
    """A tcp-shaped drive without sockets: no fleet, the same tick loop,
    and a telemetry section of its own."""

    transport = "tcp"

    def fleet(self, server, network, seed):
        return NullFleet()

    def run(self, server, fleet, system, duration_s):
        server.run_for(duration_s)
        return {"wire": {"stub": True}}


class TestOneIterationBody:
    @pytest.mark.parametrize(
        "transport, drive, own_sections",
        [("inproc", None, set()), ("tcp", StubWireDrive(), {"wire"})],
    )
    def test_every_drive_yields_the_same_record(
        self, transport, drive, own_sections, tmp_path
    ):
        import dataclasses

        from repro.core.experiment import run_server_chain
        from repro.tracing.provenance import measurement_config

        config = MeterstickConfig(
            servers=["vanilla"],
            world="players",
            number_of_bots=2,
            duration_s=1.0,
            iterations=2,
            trace=True,
            transport=transport,
            world_dir=str(tmp_path / "world"),
        )
        streamed = []
        results = run_server_chain(
            config, "vanilla", on_iteration=streamed.append, drive=drive
        )
        assert streamed == results and len(results) == 2
        for iteration, result in enumerate(results):
            assert set(result.to_dict()) >= {
                f.name for f in dataclasses.fields(IterationResult)
            }
            assert result.iteration == iteration
            assert result.workload == "players"
            assert result.seed == config.iteration_seed("vanilla", iteration)
            assert (result.n_bots, result.duration_s) == (2, 1.0)
            assert set(result.telemetry) - own_sections == {
                "tick", "system", "response_ms", "world", "trace",
            }
            assert own_sections <= set(result.telemetry)
            assert result.telemetry["tick"]["ticks"] > 0
            assert set(result.provenance) == {
                "environment", "config", "server", "fingerprint",
            }
            assert result.provenance["config"] == measurement_config(
                config.to_dict()
            )

    def test_a_drive_cannot_carry_a_cell_of_another_transport(self):
        from repro.core.experiment import run_server_chain

        with pytest.raises(ValueError, match="`repro serve`"):
            run_server_chain(MeterstickConfig(transport="tcp"), "vanilla")
        with pytest.raises(ValueError, match="`repro run`"):
            run_server_chain(
                MeterstickConfig(), "vanilla", drive=StubWireDrive()
            )
        with pytest.raises(ValueError, match="`repro serve`"):
            run_iteration("control", "vanilla", "das5", 1.0, transport="tcp")
