"""Failure-injection tests: the harness under adverse conditions."""

import json

from repro.core.experiment import run_iteration
from repro.core.results import ExperimentResult, IterationResult
from repro.mlg.blocks import Block
from repro.mlg.constants import CLIENT_TIMEOUT_US
from repro.mlg.protocol import ActionKind, PlayerAction
from repro.mlg.server import MLGServer
from repro.mlg.world import World
from repro.simtime import SimClock


class FixedMachine:
    throttled_executions = 0
    total_executions = 0
    cpu_used_us = 0.0
    wall_observed_us = 0.0
    credits_s = 0.0

    def execute(self, work_us, parallel_fraction, now_us, **kwargs):
        return max(1, int(work_us))


def _flat_server():
    world = World()
    world.fill(0, 0, 0, 47, 59, 47, Block.STONE)
    return MLGServer("vanilla", FixedMachine(), world=world, seed=0)


class TestClientChurn:
    def test_partial_timeout_does_not_crash_server(self):
        """One client timing out is churn, not a crash."""
        server = _flat_server()
        a = server.connect_client("a", 8.0, 8.0, 1000, 1000, 2)
        server.connect_client("b", 24.0, 8.0, 1000, 1000, 2)
        server.start()
        server.tick()
        # Force one client's keepalive state to be ancient.
        endpoint = server.net.client(a.client_id)
        endpoint.last_keepalive_flush_us = -2 * CLIENT_TIMEOUT_US
        server.tick()
        assert server.net.connected_count == 1
        assert not server.crashed
        assert server.running or not server.crashed

    def test_actions_after_disconnect_are_dropped(self):
        server = _flat_server()
        conn = server.connect_client("a", 8.0, 8.0, 1000, 1000, 2)
        server.net.disconnect(conn.client_id, "quit")
        action = PlayerAction(ActionKind.MOVE, conn.client_id, (9.0, 60.0, 8.0))
        assert server.submit_action(action, 0) == -1

    def test_reconnection_after_crash_state(self):
        """A stopped server refuses to run further ticks via run_for."""
        server = _flat_server()
        server.stop(reason="test crash")
        assert server.crashed
        records = server.run_for(1.0)
        # run_for starts the loop again, but the crash flag stays visible.
        assert server.crash_reason == "test crash"
        assert isinstance(records, list)


class TestResultRobustness:
    def test_result_with_crash_serializes(self, tmp_path):
        result = IterationResult(
            server="vanilla",
            workload="lag",
            environment="aws-t3.large",
            iteration=0,
            seed=1,
            duration_s=60.0,
            tick_durations_ms=[50.0, 31000.0],
            response_times_ms=[],
            tick_distribution={},
            packet_counts={},
            packet_bytes={},
            entity_message_share=0.0,
            entity_byte_share=0.0,
            system_summary={},
            crashed=True,
            crash_reason="all clients timed out (keepalive)",
            throttled_ticks=5,
            final_credits_s=0.0,
        )
        experiment = ExperimentResult(config={}, iterations=[result])
        path = experiment.save_json(tmp_path / "crash.json")
        payload = json.loads(path.read_text())
        loaded = [IterationResult.from_dict(raw) for raw in payload["iterations"]]
        assert [it.crashed for it in loaded] == [True]

    def test_empty_response_stats_is_none(self):
        result = run_iteration(
            "control", "papermc", "das5-2core", duration_s=2.0, seed=1
        )
        # PaperMC still produces response times via the async path.
        assert result.response_stats() is not None

    def test_zero_duration_trace_isr(self):
        result = IterationResult(
            server="x", workload="y", environment="z", iteration=0, seed=0,
            duration_s=0.0, tick_durations_ms=[], response_times_ms=[],
            tick_distribution={}, packet_counts={}, packet_bytes={},
            entity_message_share=0.0, entity_byte_share=0.0,
            system_summary={}, crashed=False, crash_reason=None,
            throttled_ticks=0, final_credits_s=0.0,
        )
        assert result.isr == 0.0
        assert result.response_stats() is None
