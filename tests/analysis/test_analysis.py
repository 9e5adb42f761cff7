"""Tests for the analysis package: hosting data, findings, drivers."""

from repro import analysis
from repro.analysis import (
    HOSTING_PLANS,
    PAPER,
    fig6_isr_model,
    most_common_recommendation,
    run_cell,
)
from repro.analysis.findings import FINDINGS


class TestHosting:
    def test_23_surveyed_plans(self):
        assert len(HOSTING_PLANS) == 23

    def test_most_common_is_2vcpu_4gb(self):
        ram, vcpus = most_common_recommendation()
        assert (ram, vcpus) == (4.0, 2)

    def test_np_fields_are_none(self):
        aws = next(p for p in HOSTING_PLANS if p.service == "AWS")
        assert aws.cpu_speed_ghz is None
        assert aws.ram_gb == 1.0


class TestFindingsRegistry:
    """The declarations alone, with no simulation."""

    def test_ids_are_unique(self):
        ids = [f.id for f in FINDINGS]
        assert len(ids) == len(set(ids))

    def test_each_figure_is_an_exported_driver(self):
        for f in FINDINGS:
            assert f.figure in analysis.__all__, f.id
            assert callable(getattr(analysis, f.figure)), f.id

    def test_each_paper_key_resolves(self):
        for f in FINDINGS:
            assert set(f.paper) <= PAPER.keys(), f.id

    def test_every_paper_key_is_named(self):
        assert PAPER.keys() == {k for f in FINDINGS for k in f.paper}

    def test_each_relaxation_names_a_differently_gated_finding(self):
        by_id = {f.id: f for f in FINDINGS}
        relaxed = [f for f in FINDINGS if f.relaxes is not None]
        assert relaxed
        for f in relaxed:
            assert f.relaxes in by_id, f.id
            assert by_id[f.relaxes].gate != f.gate, f.id

    def test_gates_name_known_scales(self):
        for f in FINDINGS:
            assert set(f.gate) <= {"fast", "full"}, f.id


class TestFigureDrivers:
    def test_fig6_driver_is_pure(self):
        result = fig6_isr_model()
        curves = [r for r in result.rows if "s" in r]
        assert {r["s"] for r in curves} == {2, 10, 20}
        fig6b = next(r for r in result.rows if r.get("trace") == "fig6b")
        assert fig6b["high_isr"] > fig6b["low_isr"]

    def test_run_cell_smoke(self):
        cell = run_cell("control", "vanilla", "das5-2core", duration_s=3.0)
        assert cell.tick_durations_ms
        assert cell.environment == "das5-2core"

    def test_run_cell_warm_flag(self):
        warm = run_cell("control", "vanilla", "aws-t3.large", 2.0, warm=True)
        cold = run_cell("control", "vanilla", "aws-t3.large", 2.0, warm=False)
        assert warm.final_credits_s <= cold.final_credits_s
