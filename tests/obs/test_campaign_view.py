"""The one live view of a campaign: per cell, in the report's statistics.

A finished two-cell campaign, two iterations per cell, run with
``obs: true``.  Its endpoint, scraped during the post-run scrape grace,
and ``repro top --once`` on its directory must both give, per cell, what
:func:`summarize` gives over that cell's concatenated record series, and
the median of the cell's per-iteration ISRs.
"""

import io
import json
import statistics
import threading
import time
import urllib.request

import pytest

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore
from repro.obs import run_top
from repro.telemetry.summary import summarize


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    spec = CampaignSpec(
        name="view",
        servers=["vanilla"],
        workloads=["control", "farm"],
        environments=["das5-2core"],
        iterations=2,
        duration_s=1.0,
        seed=5,
        obs=True,
        obs_port=0,
        obs_scrape_grace=2.0,
        output_dir=str(tmp_path_factory.mktemp("view") / "out"),
    )
    executor = CampaignExecutor(spec)
    run = threading.Thread(target=executor.run)
    run.start()
    store = JobStore(spec.output_dir)
    deadline = time.monotonic() + 60
    # Every record committed: the run is merging or in its scrape grace.
    while executor.obs_url is None or len(store.completed_ids()) < 2:
        assert run.is_alive() and time.monotonic() < deadline
        time.sleep(0.02)
    with urllib.request.urlopen(executor.obs_url + ".json") as response:
        doc = json.loads(response.read())
    assert run.is_alive(), "the scrape missed the grace period"
    run.join(60)
    expected = {}
    for job in store.manifest_jobs():
        lines = store.read_job_telemetry(job.job_id)
        ticks = summarize(
            [t for line in lines for t in line["tick_durations_ms"]]
        )
        responses = summarize(
            [r for line in lines for r in line["response_times_ms"]]
        )
        isrs = [it.isr for it in store.load_job(job.job_id)]
        isr = summarize(isrs)["p50"]
        assert len(isrs) == 2 and isr == pytest.approx(statistics.median(isrs))
        expected[job.cell.key()] = {
            "repro_tick_ms_p50": ticks["p50"],
            "repro_tick_ms_p99": ticks["p99"],
            "repro_response_ms_p50": responses["p50"],
            "repro_response_ms_p99": responses["p99"],
            "repro_isr": isr,
        }
    return {"store": store, "doc": doc, "expected": expected}


def test_the_endpoint_carries_each_cells_statistics(observed):
    metrics = observed["doc"]["metrics"]
    for cell, values in observed["expected"].items():
        for name, value in values.items():
            assert metrics[name][cell] == value, (cell, name)
    assert metrics["repro_jobs_total"] == 2
    assert metrics["repro_jobs_observed"] == 2
    assert metrics["repro_iterations_total"] == 4


def test_top_prints_each_cells_statistics(observed):
    out = io.StringIO()
    assert run_top(str(observed["store"].root), once=True, out=out) == 0
    frame = out.getvalue()
    blocks = dict(
        block.split("\n", 1) for block in frame.split("\ncell ")[1:]
    )
    assert sorted(blocks) == sorted(observed["expected"])
    for cell, values in observed["expected"].items():
        block = blocks[cell]
        assert (
            f"p50 {values['repro_tick_ms_p50']!r}ms   "
            f"p99 {values['repro_tick_ms_p99']!r}ms"
        ) in block
        assert (
            f"p50 {values['repro_response_ms_p50']!r}ms   "
            f"p99 {values['repro_response_ms_p99']!r}ms"
        ) in block
        assert f"ISR {values['repro_isr']:.4f}" in block
    assert frame.endswith("\njobs 2/2 observed   iterations 4\n")
