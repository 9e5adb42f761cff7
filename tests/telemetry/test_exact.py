"""Every quantile a run reports is an exact percentile of its own series.

A summary's ``p25`` … ``p99`` must equal ``np.percentile(series, q,
method="linear")`` of the very series the run kept — in the in-process
snapshot (``IterationResult.telemetry``) and in the sidecar line the
campaign streams — for the tick and response times, the sampled CPU and
memory, each traced phase's per-tick cost, and the wire flush time.
A streaming sketch read ``farm``'s 40 s tick p99 (vanilla,
``aws-t3.large``, seed 1) as 100.34 ms against an exact 92.05.
"""

import numpy as np

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore
from repro.core import run_iteration
from repro.telemetry.catalog import WIRE_FLUSH_US
from repro.telemetry.summary import QUANTILES


def assert_exact(summary: dict, series) -> None:
    assert summary["count"] == len(series)
    got = [summary[f"p{q}"] for q in QUANTILES]
    if not len(series):
        assert got == [0.0] * len(QUANTILES)
        return
    expected = np.percentile(
        np.asarray(series, dtype=float), QUANTILES, method="linear"
    )
    assert got == expected.tolist()


def system_series(collector, field: str) -> list[float]:
    return [float(getattr(sample, field)) for sample in collector.samples]


def assert_run_exact(telemetry: dict, ticks, responses, tracer, system):
    """Every quantile of one iteration's telemetry mapping."""
    assert_exact(telemetry["tick"]["tick_ms"], ticks)
    assert_exact(telemetry["response_ms"], responses)
    for field in ("cpu_utilization", "memory_bytes"):
        assert_exact(
            telemetry["system"][field], system_series(system, field)
        )
    phases = telemetry["trace"]["phases"]
    assert list(phases) == sorted(tracer.phases)
    for name, costs in tracer.phases.items():
        assert_exact(phases[name], costs)


def test_farm_snapshot_quantiles_are_exact(created):
    before = {kind: len(objects) for kind, objects in created.items()}
    result = run_iteration(
        "farm", "vanilla", "aws-t3.large", duration_s=40.0, seed=1, trace=True
    )
    ((tracer,), (system,)) = (
        created[kind][before[kind]:] for kind in ("tracer", "system")
    )
    assert len(result.tick_durations_ms) > 700
    assert result.response_times_ms
    assert_run_exact(
        result.telemetry,
        result.tick_durations_ms,
        result.response_times_ms,
        tracer,
        system,
    )


def test_campaign_sidecar_quantiles_are_exact(created, tmp_path):
    spec = CampaignSpec.from_dict(
        {
            "name": "exact",
            "servers": ["papermc"],
            "workloads": ["players"],
            "environments": ["das5-2core"],
            "bot_counts": [5],
            "iterations": 2,
            "duration_s": 4.0,
            "trace": True,
            "output_dir": str(tmp_path),
        }
    )
    before = {kind: len(objects) for kind, objects in created.items()}
    CampaignExecutor(spec).run()
    tracers = created["tracer"][before["tracer"]:]
    systems = created["system"][before["system"]:]
    buses = created["bus"][before["bus"]:]
    store = JobStore(tmp_path)
    (job_id,) = store.completed_ids()
    lines = store.read_job_telemetry(job_id)
    iterations = store.load_job(job_id)
    assert len(lines) == len(iterations) == len(tracers) == len(systems) == 2
    assert len(buses) == 2
    for line, it, tracer, system, bus in zip(
        lines, iterations, tracers, systems, buses
    ):
        assert it.response_times_ms
        # The shard carries the tap's series in arrival order, as the
        # wire path does.
        assert it.response_times_ms == bus.series["response_ms"].tolist()
        assert_run_exact(
            line["telemetry"],
            it.tick_durations_ms,
            it.response_times_ms,
            tracer,
            system,
        )
        assert line["telemetry"]["tick"]["isr"] == it.isr


def test_wire_sidecar_quantiles_are_exact(wire_cell):
    line, it = wire_cell["line"], wire_cell["iteration"]
    telemetry = line["telemetry"]
    assert_run_exact(
        telemetry,
        it.tick_durations_ms,
        it.response_times_ms,
        wire_cell["tracer"],
        wire_cell["system"],
    )
    flush_us = wire_cell["bus"].series[WIRE_FLUSH_US]
    assert flush_us
    assert_exact(telemetry["wire"][WIRE_FLUSH_US], flush_us)
    responses = wire_cell["bus"].series["response_ms"]
    assert it.response_times_ms == responses.tolist()
