"""The campaign snapshot: per-cell statistics read from the job records."""

import json

import pytest

from repro.campaign import CampaignSpec, JobPlanner, JobStore
from repro.obs import aggregate, campaign_snapshot, render_prometheus
from repro.telemetry.summary import summarize


@pytest.fixture()
def store(tmp_path):
    """A two-cell campaign's store: its manifest, no records yet."""
    spec = CampaignSpec(
        name="cells",
        servers=["vanilla"],
        workloads=["control", "farm"],
        environments=["das5-2core"],
        iterations=3,
        duration_s=1.0,
        output_dir=str(tmp_path / "out"),
    )
    store = JobStore(spec.output_dir)
    store.write_manifest(spec, JobPlanner(spec).plan())
    store.telemetry_dir.mkdir()
    return store


def jobs(store):
    return store.manifest_jobs()


def line(job, iteration, ticks, responses=(30.0,), **extra) -> dict:
    """A record line the way ``telemetry_line`` shapes one."""
    telemetry = {
        "tick": {
            "ticks": len(ticks),
            "isr": extra.get("isr", 0.2),
            "entities_last": extra.get("entities", 10),
            "entities_peak": extra.get("entities_peak", 10),
            "breakdown_us": extra.get("breakdown_us", {"redstone": 100.0}),
        },
        "response_ms": {"count": len(responses)},
    }
    for section in ("wire", "trace"):
        if section in extra:
            telemetry[section] = extra[section]
    return {
        "job_id": job.job_id,
        "cell": job.cell.key(),
        "iteration": iteration,
        "tick_durations_ms": list(ticks),
        "response_times_ms": list(responses),
        "telemetry": telemetry,
    }


def raw(*lines) -> bytes:
    return b"".join(json.dumps(entry).encode() + b"\n" for entry in lines)


def write(store, job, payload: bytes, mode="wb") -> None:
    with store.telemetry_path(job.job_id).open(mode) as record:
        record.write(payload)


def cell_values(store, job) -> dict:
    """Every per-cell sample of ``job``'s cell in a fresh snapshot."""
    values = campaign_snapshot(store).values
    return {
        name: value[job.cell.key()]
        for name, value in values.items()
        if isinstance(value, dict) and job.cell.key() in value
    }


class TestCellStatistics:
    def test_gauges_are_summarize_over_the_concatenated_series(self, store):
        job = jobs(store)[0]
        first, second = [10.0, 11.0, 90.0], [20.0, 21.0, 22.0, 23.0, 60.0]
        write(
            store,
            job,
            raw(
                line(job, 0, first, responses=(5.0, 7.0)),
                line(job, 1, second, responses=(40.0,)),
            ),
        )
        values = cell_values(store, job)
        ticks = summarize(first + second)
        responses = summarize([5.0, 7.0, 40.0])
        for stat in ("mean", "p50", "p95", "p99", "max"):
            assert values[f"repro_tick_ms_{stat}"] == ticks[stat], stat
        assert values["repro_tick_cov"] == ticks["cov"]
        assert values["repro_overloaded_fraction"] == 2 / 8  # > 50 ms
        assert values["repro_response_ms_p50"] == responses["p50"]
        assert values["repro_response_ms_p99"] == responses["p99"]
        # Not the tick-weighted mean of the per-iteration medians, which
        # the campaign view used to publish (3*11 + 5*22) / 8.
        assert values["repro_tick_ms_p50"] == 21.5 != (3 * 11 + 5 * 22) / 8

    def test_isr_is_the_median_of_the_per_iteration_isrs(self, store):
        job = jobs(store)[0]
        write(
            store,
            job,
            raw(*(
                line(job, index, [1.0] * (index + 1), isr=isr)
                for index, isr in enumerate((0.1, 0.5, 0.2))
            )),
        )
        assert cell_values(store, job)["repro_isr"] == 0.2

    def test_counters_sum_peaks_max_and_entities_are_the_latest(self, store):
        job = jobs(store)[0]
        write(
            store,
            job,
            raw(
                line(
                    job, 0, [1.0] * 7, responses=(1.0, 2.0),
                    entities=40, entities_peak=50,
                    breakdown_us={"redstone": 5.0, "fluids": 2.0},
                ),
                line(
                    job, 1, [1.0] * 3, responses=(3.0,),
                    entities=20, entities_peak=30,
                    breakdown_us={"redstone": 3.0},
                ),
            ),
        )
        values = cell_values(store, job)
        assert values["repro_ticks_total"] == 10
        assert values["repro_response_samples_total"] == 3
        assert values["repro_phase_us_total"] == {
            "redstone": 8.0,
            "fluids": 2.0,
        }
        assert values["repro_entities_peak"] == 50
        assert values["repro_entities"] == 20

    def test_wire_and_trace_appear_only_when_seen(self, store):
        def wire(flush_p99, out):
            return {
                "wire_bytes_in": {"total": 10.0},
                "wire_bytes_out": {"total": out},
                "wire_connects": {"count": 2},
                "wire_flush_us": {"count": 1000, "p99": flush_p99},
            }

        job = jobs(store)[0]
        write(store, job, raw(line(job, 0, [1.0])))
        assert "repro_wire_bytes_out_total" not in cell_values(store, job)
        assert "repro_slow_ticks_total" not in cell_values(store, job)
        trace = {"enabled": True, "slow_ticks": 1, "anomaly_count": 0}
        write(
            store,
            job,
            raw(
                line(job, 1, [1.0], wire=wire(300.0, 20.0), trace=trace),
                line(job, 2, [1.0], wire=wire(100.0, 5.0), trace=trace),
            ),
            mode="ab",
        )
        values = cell_values(store, job)
        assert values["repro_wire_bytes_out_total"] == 25.0
        assert values["repro_wire_connects_total"] == 4
        # Each line keeps only its flush summary: the largest p99.
        assert values["repro_wire_flush_us_p99"] == 300.0
        assert values["repro_slow_ticks_total"] == 2

    def test_cells_are_labelled_and_job_counts_are_not(self, store):
        control, farm = jobs(store)
        write(store, control, raw(line(control, 0, [5.0, 6.0])))
        write(store, farm, raw(line(farm, 0, [9.0]), line(farm, 1, [8.0])))
        body = render_prometheus(campaign_snapshot(store))
        assert f'repro_ticks_total{{cell="{control.cell.key()}"}} 2' in body
        assert f'repro_ticks_total{{cell="{farm.cell.key()}"}} 2' in body
        assert (
            f'repro_phase_us_total{{cell="{farm.cell.key()}",'
            f'phase="redstone"}} 200'
        ) in body
        assert "\nrepro_jobs_total 2\n" in body
        assert "\nrepro_jobs_observed 2\n" in body
        assert "\nrepro_iterations_total 3\n" in body

    def test_a_campaign_without_records_holds_only_its_job_counts(
        self, store
    ):
        values = campaign_snapshot(store, meta={"campaign": "cells"}).values
        assert values == {
            "repro_jobs_total": 2.0,
            "repro_jobs_observed": 0.0,
            "repro_iterations_total": 0.0,
        }


class TestReadFromTheRecords:
    """The snapshot is what each record holds when it is taken."""

    def test_a_rerun_that_truncates_its_record_is_read_as_it_stands(
        self, store
    ):
        job = jobs(store)[0]
        write(
            store,
            job,
            raw(line(job, 0, [10.0] * 100), line(job, 1, [10.0] * 100)),
        )
        snap = campaign_snapshot(store)
        assert snap.values["repro_ticks_total"][job.cell.key()] == 200
        assert snap.values["repro_iterations_total"] == 2
        # The re-run truncates the record and streams its first line.
        write(store, job, raw(line(job, 0, [20.0] * 100)))
        values = campaign_snapshot(store).values
        assert values["repro_ticks_total"][job.cell.key()] == 100
        assert values["repro_iterations_total"] == 1
        assert values["repro_tick_ms_p50"][job.cell.key()] == 20.0

    def test_a_rerun_that_outgrows_the_old_record_replaces_it(self, store):
        job = jobs(store)[0]
        write(store, job, raw(*(line(job, i, [10.0] * 50) for i in range(2))))
        campaign_snapshot(store)
        write(store, job, raw(*(line(job, i, [30.0] * 80) for i in range(3))))
        values = cell_values(store, job)
        assert values["repro_ticks_total"] == 240
        assert values["repro_tick_ms_mean"] == 30.0

    def test_a_torn_trailing_line_counts_once_it_is_whole(self, store):
        job = jobs(store)[0]
        whole = raw(line(job, 0, [1.0]), line(job, 1, [2.0, 3.0]))
        cut = whole.index(b"\n") + 10
        write(store, job, whole[:cut])
        assert cell_values(store, job)["repro_ticks_total"] == 1
        write(store, job, whole[cut:], mode="ab")
        assert cell_values(store, job)["repro_ticks_total"] == 3

    def test_a_corrupt_line_is_skipped(self, store):
        job = jobs(store)[0]
        write(store, job, b"{not json\n" + raw(line(job, 3, [4.0, 4.0])))
        assert cell_values(store, job)["repro_ticks_total"] == 2
        assert campaign_snapshot(store).values["repro_iterations_total"] == 1

    def test_commit_lines_and_client_span_streams_are_not_iterations(
        self, store
    ):
        job = jobs(store)[0]
        write(store, job, raw(line(job, 0, [1.0] * 4)))
        store.save_job_payload(job, 1)
        (store.telemetry_dir / "fleet.clientspans.jsonl").write_bytes(
            raw({"client": 0, "tick": 1, "telemetry": {}})
        )
        values = campaign_snapshot(store).values
        assert values["repro_iterations_total"] == 1
        assert values["repro_jobs_observed"] == 1
        assert list(values["repro_ticks_total"]) == [job.cell.key()]

    def test_lines_concatenate_in_record_order(self, store):
        # The mean is a left-to-right sum, so its bits depend on the
        # order; the latest line gives the live entity count.
        job = jobs(store)[0]
        series = [[0.1] * 3, [0.7, 1e-9], [0.3] * 5]
        write(
            store,
            job,
            raw(*(
                line(job, i, ticks, entities=i + 1)
                for i, ticks in enumerate(series)
            )),
        )
        values = cell_values(store, job)
        assert values["repro_tick_ms_mean"] == summarize(
            [tick for ticks in series for tick in ticks]
        )["mean"]
        assert values["repro_entities"] == 3

    def test_counters_never_fall_while_records_grow(self, store):
        counters = ("repro_ticks_total", "repro_response_samples_total")
        previous = dict.fromkeys(counters, 0.0)
        for index in range(5):
            job = jobs(store)[index % 2]
            write(store, job, raw(line(job, index, [2.0] * 7)), mode="ab")
            values = campaign_snapshot(store).values
            for name in counters:
                total = sum(values[name].values())
                assert total >= previous[name]
                previous[name] = total
            assert values["repro_iterations_total"] == index + 1


class TestIdleScrapes:
    """A cell is summarised again only when a record its lines come from
    changed; otherwise a scrape reuses the cell's last statistics."""

    @staticmethod
    def _two_cells(store):
        first = jobs(store)[0]
        other = next(
            job for job in jobs(store) if job.cell.key() != first.cell.key()
        )
        write(store, first, raw(line(first, 0, [10.0, 12.0]),
                                line(first, 1, [11.0])))
        write(store, other, raw(line(other, 0, [30.0] * 4)))
        return first, other

    @staticmethod
    def _count_summaries(monkeypatch) -> list:
        calls = []
        real = aggregate.summarize

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(aggregate, "summarize", counted)
        return calls

    def test_a_scrape_with_no_record_changed_summarises_nothing(
        self, store, monkeypatch
    ):
        self._two_cells(store)
        first = render_prometheus(campaign_snapshot(store))
        calls = self._count_summaries(monkeypatch)
        again = render_prometheus(campaign_snapshot(store))
        assert again == first
        assert calls == []

    def test_a_rewritten_record_rescrapes_only_its_cell_and_equals_a_cold_store(
        self, store, monkeypatch
    ):
        first, _ = self._two_cells(store)
        campaign_snapshot(store)
        write(store, first, raw(line(first, 0, [20.0] * 3)))
        calls = self._count_summaries(monkeypatch)
        warm = campaign_snapshot(store)
        # tick_ms, isr and response_ms of the one changed cell.
        assert len(calls) == 3
        cold = campaign_snapshot(JobStore(store.root))
        assert render_prometheus(warm) == render_prometheus(cold)
        assert warm.values["repro_tick_ms_p50"][first.cell.key()] == 20.0
