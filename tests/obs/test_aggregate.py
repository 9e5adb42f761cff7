"""Campaign obs aggregation: fold semantics and monotonicity."""

from repro.obs import CampaignObsAggregate


def sidecar_line(job_id: str, ticks: int, p50: float, **extra) -> dict:
    telemetry = {
        "tick": {
            "ticks": ticks,
            "isr": extra.get("isr", 0.2),
            "overloaded_fraction": 0.0,
            "entities_last": extra.get("entities", 10),
            "entities_peak": extra.get("entities_peak", 10),
            "breakdown_us": extra.get("breakdown_us", {"redstone": 100.0}),
            "tick_ms": {
                "count": ticks,
                "mean": p50,
                "p50": p50,
                "p95": p50,
                "p99": p50,
                "max": extra.get("tick_max", p50),
                "cov": 0.1,
            },
        },
        "response_ms": {
            "count": extra.get("samples", 4),
            "p50": extra.get("response_p50", 30.0),
            "p99": 90.0,
        },
    }
    if "wire" in extra:
        telemetry["wire"] = extra["wire"]
    if "trace" in extra:
        telemetry["trace"] = extra["trace"]
    return {"job_id": job_id, "iteration": 0, "telemetry": telemetry}


class TestFold:
    def test_counters_sum_and_gauges_tick_weight(self):
        agg = CampaignObsAggregate(n_jobs=3)
        agg.fold(sidecar_line("job-a", ticks=100, p50=10.0))
        agg.fold(sidecar_line("job-b", ticks=300, p50=20.0))
        values = agg.snapshot().values
        assert values["repro_ticks_total"] == 400
        assert values["repro_jobs_total"] == 3
        assert values["repro_jobs_observed"] == 2
        assert values["repro_iterations_total"] == 2
        # (100*10 + 300*20) / 400 — weighted by ticks, not by line.
        assert values["repro_tick_ms_p50"] == 17.5

    def test_phase_us_sums_per_bucket(self):
        agg = CampaignObsAggregate(n_jobs=1)
        agg.fold(
            sidecar_line(
                "job-a", 10, 1.0, breakdown_us={"redstone": 5.0, "fluids": 2.0}
            )
        )
        agg.fold(sidecar_line("job-a", 10, 1.0, breakdown_us={"redstone": 3.0}))
        phases = agg.snapshot().values["repro_phase_us_total"]
        assert phases == {"redstone": 8.0, "fluids": 2.0}

    def test_entities_peak_is_max_not_sum(self):
        agg = CampaignObsAggregate(n_jobs=1)
        agg.fold(sidecar_line("job-a", 10, 1.0, entities_peak=50))
        agg.fold(sidecar_line("job-a", 10, 1.0, entities_peak=30))
        assert agg.snapshot().values["repro_entities_peak"] == 50

    def test_tick_max_is_the_max_of_maxima(self):
        # A maximum merges exactly; it used to be tick-weighted like the
        # quantiles and read 65.0 here.
        agg = CampaignObsAggregate(n_jobs=1)
        agg.fold(sidecar_line("job-a", 100, 1.0, tick_max=40.0))
        agg.fold(sidecar_line("job-a", 100, 1.0, tick_max=90.0))
        assert agg.snapshot().values["repro_tick_ms_max"] == 90.0

    def test_flush_p99_is_weighted_by_flushes_not_connects(self):
        # The weighted total used to be divided by the connect count:
        # 1000 flushes at p99 300 over 2 connects read 150000.
        def wire(flushes, p99):
            return {
                "wire_bytes_in": {"total": 0.0},
                "wire_bytes_out": {"total": 0.0},
                "wire_connects": {"count": 2},
                "wire_flush_us": {"count": flushes, "p99": p99},
            }

        agg = CampaignObsAggregate(n_jobs=1)
        agg.fold(sidecar_line("job-a", 10, 1.0, wire=wire(1000, 300.0)))
        assert agg.snapshot().values["repro_wire_flush_us_p99"] == 300.0
        agg.fold(sidecar_line("job-a", 10, 1.0, wire=wire(3000, 100.0)))
        assert agg.snapshot().values["repro_wire_flush_us_p99"] == 150.0

    def test_wire_and_trace_appear_only_when_seen(self):
        agg = CampaignObsAggregate(n_jobs=1)
        agg.fold(sidecar_line("job-a", 10, 1.0))
        assert "repro_wire_bytes_out_total" not in agg.snapshot().values
        agg.fold(
            sidecar_line(
                "job-a",
                10,
                1.0,
                wire={
                    "wire_bytes_in": {"total": 10.0},
                    "wire_bytes_out": {"total": 20.0},
                    "wire_connects": {"count": 2},
                    "wire_flush_us": {"count": 5, "p99": 100.0},
                },
                trace={"enabled": True, "slow_ticks": 1, "anomaly_count": 0},
            )
        )
        values = agg.snapshot().values
        assert values["repro_wire_bytes_out_total"] == 20.0
        assert values["repro_slow_ticks_total"] == 1.0

    def test_counters_monotone_across_folds(self):
        agg = CampaignObsAggregate(n_jobs=2)
        counters = (
            "repro_ticks_total",
            "repro_response_samples_total",
            "repro_iterations_total",
        )
        previous = {name: 0.0 for name in counters}
        for index in range(5):
            agg.fold(sidecar_line(f"job-{index % 2}", ticks=7, p50=2.0))
            values = agg.snapshot().values
            for name in counters:
                assert values[name] >= previous[name]
                previous[name] = values[name]

    def test_empty_aggregate_renders_zeros(self):
        values = CampaignObsAggregate(n_jobs=4).snapshot().values
        assert values["repro_ticks_total"] == 0
        assert values["repro_jobs_observed"] == 0
        assert values["repro_tick_ms_p50"] == 0.0
