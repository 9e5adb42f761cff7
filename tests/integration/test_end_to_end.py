"""End-to-end integration tests: the paper's headline shapes, in miniature.

These run short full-stack experiments (server + engines + bots + machine
models) and assert the orderings the paper reports, with durations kept
small enough for the regular test suite.
"""

import numpy as np
import pytest

from repro.analysis.figures import run_cell
from repro.core import ExperimentRunner, MeterstickConfig, run_iteration
from repro.metrics import instability_ratio


@pytest.fixture(scope="module")
def control_cells():
    return {
        (server, env): run_cell(server=server, workload="control",
                                environment=env, duration_s=20.0, seed=11)
        for server in ("vanilla", "papermc")
        for env in ("das5-2core", "aws-t3.large")
    }


class TestVariantOrdering:
    def test_papermc_is_fastest(self, control_cells):
        das5_vanilla = control_cells[("vanilla", "das5-2core")]
        das5_papermc = control_cells[("papermc", "das5-2core")]
        assert (
            np.mean(das5_papermc.tick_durations_ms[1:])
            < np.mean(das5_vanilla.tick_durations_ms[1:])
        )

    def test_forge_is_slowest(self):
        forge = run_cell("control", "forge", "das5-2core", 15.0, seed=11)
        vanilla = run_cell("control", "vanilla", "das5-2core", 15.0, seed=11)
        assert (
            np.mean(forge.tick_durations_ms[1:])
            > np.mean(vanilla.tick_durations_ms[1:])
        )


class TestEnvironmentOrdering:
    def test_cloud_is_noisier_than_das5(self, control_cells):
        for server in ("vanilla", "papermc"):
            das5 = control_cells[(server, "das5-2core")]
            aws = control_cells[(server, "aws-t3.large")]
            das5_std = np.std(das5.tick_durations_ms[1:])
            aws_std = np.std(aws.tick_durations_ms[1:])
            assert aws_std > das5_std

    def test_sixteen_cores_beat_two(self):
        two = run_cell("tnt", "vanilla", "das5-2core", 35.0, seed=4)
        sixteen = run_cell("tnt", "vanilla", "das5-16core", 35.0, seed=4)
        assert (
            np.mean(sixteen.tick_durations_ms)
            < np.mean(two.tick_durations_ms)
        )


class TestWorkloadShapes:
    def test_environment_workload_beats_player_workload(self):
        """MF2's core claim: Farm/TNT variability exceeds Players'."""
        tnt = run_cell("tnt", "vanilla", "aws-t3.large", 45.0, seed=9)
        players = run_cell("players", "vanilla", "aws-t3.large", 45.0, seed=9)
        assert tnt.isr > players.isr

    def test_lag_crashes_aws_but_not_das5(self):
        das5 = run_cell("lag", "vanilla", "das5-2core", 60.0, seed=2)
        aws = run_cell("lag", "vanilla", "aws-t3.large", 60.0, seed=2)
        assert not das5.crashed
        assert das5.isr > 0.7
        assert aws.crashed

    def test_single_player_can_overload_the_game(self):
        """§2.2.2: one player (even idle) plus an environment workload
        overloads the simulator — unlike traditional games, where only
        player count drives load."""
        cell = run_cell("tnt", "vanilla", "das5-2core", 45.0, seed=3)
        assert any(t > 50.0 for t in cell.tick_durations_ms[200:])


class TestDeterminismAndCrash:
    def test_full_iteration_determinism(self):
        a = run_iteration("farm", "papermc", "azure-d2v3", 10.0, seed=77)
        b = run_iteration("farm", "papermc", "azure-d2v3", 10.0, seed=77)
        assert a.tick_durations_ms == b.tick_durations_ms
        assert a.isr == b.isr
        assert a.packet_counts == b.packet_counts

    def test_crash_terminates_campaign_iteration(self):
        config = MeterstickConfig(
            servers=["vanilla"],
            world="lag",
            environment="aws-t3.large",
            duration_s=60.0,
            iterations=1,
            warm_machines=True,
            seed=2,
        )
        result = ExperimentRunner(config).run()
        assert any(it.crashed for it in result.for_server("vanilla"))
        assert result.iterations[0].crash_reason

    def test_isr_recomputable_from_trace(self):
        cell = run_cell("farm", "vanilla", "das5-2core", 10.0, seed=5)
        assert cell.isr == pytest.approx(
            instability_ratio(cell.tick_durations_ms, 50.0)
        )
