"""Tracer correctness: exact reconciliation, retention, bit-identity and
the flight recorder.

The load-bearing invariants:

* merging a traced tick's top-level span deltas and re-pricing them
  through :class:`WorkReport` reproduces the tick's ``breakdown_us`` —
  and, with the post-pricing ``flush`` span excluded, its ``work_us`` —
  **bit for bit** (integer op counts subtract exactly as floats);
* ``trace=False`` runs are bit-identical with traced runs of the same
  seed: the tracer observes the simulation, it never perturbs it.

What full-rate tracing costs the host is a wall-clock measurement, so it
lives with the other benchmarks (``benchmarks/bench_trace_overhead.py``,
an absolute cost in µs per tick with its interval), not here.
"""

import json
from collections import deque

import numpy as np
import pytest

from repro.cloud.providers import get_environment
from repro.emulation.swarm import BotSwarm
from repro.mlg.constants import TICK_BUDGET_US
from repro.mlg.server import MLGServer
from repro.mlg.workreport import WorkReport
from repro.simtime import SimClock
from repro.telemetry import summarize
from repro.tracing.tracer import (
    NULL_TRACER,
    Tracer,
    TracedWorkReport,
    compact_span,
    decode_ticks,
    merge_span_ops,
)
from repro.workloads import get_workload


def _traced_server(seed=5, workload="players", **trace_kwargs):
    """A server running ``workload`` with its bot swarm, ready to tick."""
    env = get_environment("das5-2core")
    machine = env.create_machine(seed=seed)
    bots = {"n_bots": 25, "behavior": "bounded-random"}
    workload = get_workload(
        workload, scale=1.0, **(bots if workload == "players" else {})
    )
    world = workload.create_world(seed)
    server = MLGServer(
        "vanilla",
        machine,
        world=world,
        clock=SimClock(),
        seed=seed,
        **trace_kwargs,
    )
    rng = np.random.default_rng(seed ^ 0x5EED)
    swarm = BotSwarm(server, env.network, rng)
    workload.install(server, swarm)
    server.start()
    return server, swarm


class TestReconciliation:
    def test_span_merge_reproduces_breakdown_and_work_exactly(self):
        server, swarm = _traced_server(trace=True)
        table = server.variant.cost_table
        for _ in range(150):
            record = server.loop.run_tick()
            swarm.step()
            dump = server.tracer.recent_ticks()[-1]
            assert dump["tick"] == record.index

            merged = WorkReport()
            merged.counts = merge_span_ops(dump["spans"])
            assert merged.bucketed_cost_us(table) == record.breakdown_us

            # work_us was priced *before* the flush span's ops landed,
            # so excluding "flush" reproduces it exactly.
            pre_flush = WorkReport()
            pre_flush.counts = merge_span_ops(
                dump["spans"], exclude=("flush",)
            )
            assert pre_flush.total_cost_us(table) == record.work_us

    def test_phase_totals_match_span_costs(self):
        server, swarm = _traced_server(trace=True)
        totals: dict[str, float] = {}
        for _ in range(60):
            server.loop.run_tick()
            swarm.step()
            for span in server.tracer.recent_ticks()[-1]["spans"]:
                if span.depth == 1:
                    totals[span.name] = (
                        totals.get(span.name, 0.0) + span.cost_us
                    )
        snap = server.tracer.snapshot()
        assert set(snap["phases"]) == set(totals)
        for name, acc in snap["phases"].items():
            assert acc["count"] == 60
            assert acc["mean"] * acc["count"] == pytest.approx(totals[name])

    def test_phases_are_each_ticks_top_level_span_costs(self):
        # One cost per phase per traced tick, in tick order, and the
        # snapshot summarizes exactly those series.
        server, swarm = _traced_server(trace=True)
        tracer = server.tracer
        expected: dict[str, list[float]] = {}
        for _ in range(37):
            server.loop.run_tick()
            swarm.step()
            for span in tracer.recent_ticks()[-1]["spans"]:
                if span.depth == 1:
                    expected.setdefault(span.name, []).append(span.cost_us)
        assert tracer.phases == expected
        assert list(tracer.phases) == list(expected)
        assert tracer.snapshot()["phases"] == {
            name: summarize(costs) for name, costs in sorted(expected.items())
        }

    def test_traced_report_tallies_like_plain_report(self):
        plain, traced = WorkReport(), TracedWorkReport()
        for report in (plain, traced):
            report.add("op_a", 3)
            report.add("op_b", 2.0)
            report.add("op_a", 1)
            report.add("op_zero", 0)
            other = WorkReport()
            other.add("op_b", 5)
            other.add("op_c", 1)
            report.merge(other)
        assert traced.counts == plain.counts
        assert list(traced.counts) == list(plain.counts)
        # With no span open, counts IS the (only) base segment.
        assert traced.segments == [traced.counts]
        with pytest.raises(ValueError):
            traced.add("op_a", -1)

    def test_mid_span_reads_merge_open_segments(self):
        # The game loop prices the tick *inside* the pricing span, so
        # reads must see base + every open segment, not just the
        # innermost one.
        table = {"op_a": 2.0, "op_b": 10.0}
        tracer = Tracer(table, budget_us=TICK_BUDGET_US)
        report = tracer.begin_tick(0, 0)
        report.add("op_a", 3)
        with tracer.span("outer"):
            report.add("op_b", 1)
            with tracer.span("inner"):
                report.add("op_a", 4)
                assert report.get("op_a") == 7.0
                assert report.total_cost_us(table) == 24.0
                assert report.bucketed_cost_us(table) == {"Other": 24.0}
                assert report.copy().counts == {"op_a": 7.0, "op_b": 1.0}
        # All spans closed: the base segment holds the full tally.
        assert report.counts == {"op_a": 7.0, "op_b": 1.0}
        assert report.segments == [report.counts]


class TestRetention:
    def test_every_tick_is_traced(self):
        server, swarm = _traced_server(trace=True)
        tracer = server.tracer
        with tracer.span("between ticks") as span:
            assert span is None  # no tick open, nothing to trace into
        for _ in range(40):
            server.loop.run_tick()
            swarm.step()
        assert tracer.ticks_seen == 40
        assert [d["tick"] for d in tracer.recent_ticks()] == list(range(40))
        assert all(
            acc["count"] == 40
            for acc in tracer.snapshot()["phases"].values()
        )

    def test_ring_buffer_bounds_retention(self):
        server, swarm = _traced_server(trace=True)
        server.tracer._ring = deque(maxlen=8)
        for _ in range(20):
            server.loop.run_tick()
            swarm.step()
        dumps = server.tracer.recent_ticks()
        assert [d["tick"] for d in dumps] == list(range(12, 20))

    def test_snapshot_exports_the_most_recent_ticks(self):
        server, swarm = _traced_server(trace=True)
        server.tracer.EXPORT_TICKS = 5
        for _ in range(12):
            server.loop.run_tick()
            swarm.step()
        exported = decode_ticks(server.tracer.snapshot()["ticks"])
        assert [dump["tick"] for dump in exported] == list(range(7, 12))
        assert len(server.tracer.recent_ticks()) == 12

    def test_null_tracer_is_inert(self):
        report = NULL_TRACER.begin_tick(0, 0)
        assert type(report) is WorkReport
        with NULL_TRACER.span("anything") as span:
            assert span is None
        assert NULL_TRACER.snapshot() == {"enabled": False}


class TestTickColumns:
    @pytest.mark.parametrize("workload", ["players", "tnt"])
    def test_columns_decode_to_the_rings_compact_spans(
        self, tmp_path, workload
    ):
        # A world directory, a short autosave interval and a chunk cap
        # below what the world loads: every tick opens lifecycle ->
        # evict, and some open lifecycle -> autosave.
        server, swarm = _traced_server(
            trace=True,
            workload=workload,
            world_dir=str(tmp_path / "world"),
            autosave_interval_s=1.0,
            max_loaded_chunks=40,
        )
        tracer = server.tracer
        for _ in range(tracer.EXPORT_TICKS + 30):
            server.loop.run_tick()
            swarm.step()
        snapshot = tracer.snapshot()
        ring = tracer.recent_ticks(tracer.EXPORT_TICKS)
        expected = [
            {
                "tick": dump["tick"],
                "start_us": dump["start_us"],
                "duration_us": dump["duration_us"],
                "work_us": dump["work_us"],
                "spans": [compact_span(span) for span in dump["spans"]],
            }
            for dump in ring
        ]
        # Straight from the snapshot, and as a record line reads it back.
        assert list(decode_ticks(snapshot["ticks"])) == expected
        line = json.loads(json.dumps(snapshot, sort_keys=True))
        assert list(decode_ticks(line["ticks"])) == expected
        nested = {
            (span["n"], span["d"])
            for dump in expected
            for span in dump["spans"]
            if span["d"] > 1
        }
        assert {("autosave", 2), ("evict", 2)} <= nested
        assert all(
            "args" in span
            for dump in expected
            for span in dump["spans"]
            if span["n"] == "pricing"
        )

    def test_nothing_under_ticks_is_an_object_but_args(self):
        server, swarm = _traced_server(trace=True)
        for _ in range(20):
            server.loop.run_tick()
            swarm.step()
        ticks = json.loads(json.dumps(server.tracer.snapshot()))["ticks"]

        def objects(value, path):
            if isinstance(value, dict):
                yield path
                for key, item in value.items():
                    yield from objects(item, f"{path}.{key}")
            elif isinstance(value, list):
                for item in value:
                    yield from objects(item, f"{path}[]")

        found = set(objects(ticks, "ticks"))
        assert found == {"ticks", "ticks.args"} | {
            f"ticks.args.{at}" for at in ticks["args"]
        }
        assert all(
            not isinstance(column, dict)
            for key, column in ticks.items()
            if key != "args"
        )

    def test_the_list_form_is_refused(self):
        listed = [{"tick": 0, "start_us": 0, "duration_us": 1, "spans": []}]
        with pytest.raises(ValueError, match="layout before columns"):
            list(decode_ticks(listed))


class TestBitIdentity:
    def test_trace_off_and_on_produce_identical_ticks(self):
        base, base_swarm = _traced_server(trace=False)
        traced, traced_swarm = _traced_server(trace=True)
        assert base.tracer is NULL_TRACER
        base_records, traced_records = [], []
        for _ in range(120):
            base_records.append(base.loop.run_tick())
            base_swarm.step()
            traced_records.append(traced.loop.run_tick())
            traced_swarm.step()
        assert base_records == traced_records


class TestFlightRecorder:
    def test_slow_ticks_are_dumped_with_top_ops_and_spans(self):
        # Threshold far below any real tick: everything is "slow".
        server, swarm = _traced_server(trace=True, slow_tick_factor=0.001)
        for _ in range(30):
            server.loop.run_tick()
            swarm.step()
        tracer = server.tracer
        assert tracer.slow_ticks == 30
        anomaly = tracer.anomalies[-1]
        assert anomaly["factor"] > 0.001
        assert anomaly["spans"], "a slow tick must attach its span tree"
        costs = [us for _, _, us in anomaly["top_ops"]]
        assert costs == sorted(costs, reverse=True)
        assert len(costs) <= tracer.TOP_OPS

    def test_anomaly_deque_is_bounded(self):
        server, swarm = _traced_server(trace=True, slow_tick_factor=0.001)
        server.tracer.anomalies = type(server.tracer.anomalies)(maxlen=5)
        for _ in range(12):
            server.loop.run_tick()
            swarm.step()
        assert len(server.tracer.anomalies) == 5
        assert [a["tick"] for a in server.tracer.anomalies] == list(
            range(7, 12)
        )
