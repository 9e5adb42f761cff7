"""The obs=False contract: observing a run must not change the run.

Three executions of the same tiny campaign: two with the obs plane off
(byte-identical, the obs code must be fully inert when disabled) and one
serving a live endpoint that is actively scraped mid-run.  The scraped
run's *measurements* — tick series, response times, telemetry, seeds —
must match the unobserved ones exactly; only the recorded obs knobs and
the provenance fingerprint may differ (the obs knobs are fingerprinted,
like every knob not declared ``fingerprint=False`` in core/config.py).
"""

import json
import urllib.request

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore

#: Keys allowed to differ between an observed and an unobserved run.
_OBS_KEYS = {"obs", "obs_port", "obs_scrape_grace", "fingerprint"}


def tiny_spec(out_dir, **kwargs) -> CampaignSpec:
    base = dict(
        name="purity",
        servers=["vanilla"],
        workloads=["control"],
        environments=["das5-2core"],
        iterations=2,
        duration_s=1.0,
        seed=23,
        output_dir=str(out_dir),
    )
    base.update(kwargs)
    return CampaignSpec(**base)


def scrub(node):
    """Drop the obs knobs and fingerprints, recursively."""
    if isinstance(node, dict):
        return {
            key: scrub(value)
            for key, value in node.items()
            if key not in _OBS_KEYS
        }
    if isinstance(node, list):
        return [scrub(item) for item in node]
    return node


class TestObsPurity:
    def test_obs_off_is_bit_identical(self, tmp_path):
        CampaignExecutor(tiny_spec(tmp_path / "a")).run()
        CampaignExecutor(tiny_spec(tmp_path / "b")).run()
        records_a = sorted((tmp_path / "a" / "telemetry").iterdir())
        records_b = sorted((tmp_path / "b" / "telemetry").iterdir())
        assert [r.name for r in records_a] == [r.name for r in records_b]
        for record, twin in zip(records_a, records_b):
            assert record.read_bytes() == twin.read_bytes()

    def test_scraped_run_measures_identically(self, tmp_path):
        off = CampaignExecutor(tiny_spec(tmp_path / "off"))
        off.run()

        scrapes = []

        def scrape_progress(job, done, total):
            # The endpoint is live until run() returns: scrape it so the
            # "observed" run really is observed, not just observable.
            with urllib.request.urlopen(on.obs_url, timeout=5) as response:
                scrapes.append(response.read().decode("utf-8"))

        on = CampaignExecutor(
            tiny_spec(tmp_path / "on", obs=True, obs_port=0),
            progress=scrape_progress,
        )
        on.run()
        assert scrapes and "repro_jobs_total 1" in scrapes[0]

        off_records = sorted((tmp_path / "off" / "telemetry").iterdir())
        on_records = sorted((tmp_path / "on" / "telemetry").iterdir())
        assert [r.name for r in off_records] == [r.name for r in on_records]
        for record, twin in zip(off_records, on_records):
            assert [
                scrub(json.loads(line))
                for line in record.read_text().splitlines()
            ] == [
                scrub(json.loads(line))
                for line in twin.read_text().splitlines()
            ]
        # The fingerprints DIFFER by design: obs knobs are
        # measurement-classified, so an observed campaign never silently
        # poses as an unobserved one.
        off_manifest = JobStore(tmp_path / "off").read_manifest()
        on_manifest = JobStore(tmp_path / "on").read_manifest()
        assert (
            off_manifest["provenance"]["fingerprint"]
            != on_manifest["provenance"]["fingerprint"]
        )

    def test_obs_off_starts_no_endpoint(self, tmp_path):
        executor = CampaignExecutor(tiny_spec(tmp_path / "plain"))
        executor.run()
        assert executor.obs_url is None
