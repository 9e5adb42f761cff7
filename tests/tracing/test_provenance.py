"""Provenance fingerprinting: determinism, digest scope, and the
campaign/iteration wiring."""

import json

from repro.campaign import CampaignExecutor, CampaignSpec, JobStore
from repro.core.experiment import run_server_chain
from repro.core.config import MeterstickConfig
from repro.tracing.provenance import (
    environment_fingerprint,
    measurement_config,
    provenance_fingerprint,
)


class TestFingerprint:
    def test_same_inputs_same_fingerprint(self):
        config = {"seed": 7, "duration_s": 3.0}
        a = provenance_fingerprint(config)
        b = provenance_fingerprint(dict(config))
        assert a == b
        assert a["fingerprint"] == b["fingerprint"]

    def test_config_changes_change_the_digest(self):
        a = provenance_fingerprint({"seed": 7})
        b = provenance_fingerprint({"seed": 8})
        assert a["fingerprint"] != b["fingerprint"]

    def test_extra_context_enters_the_digest(self):
        a = provenance_fingerprint({"seed": 7}, extra={"server": "vanilla"})
        b = provenance_fingerprint({"seed": 7}, extra={"server": "papermc"})
        assert a["fingerprint"] != b["fingerprint"]
        assert a["server"] == "vanilla"

    def test_timestamp_never_enters_the_digest(self):
        bare = provenance_fingerprint({"seed": 7})
        stamped = provenance_fingerprint({"seed": 7}, include_timestamp=True)
        assert "captured_at" not in bare
        assert stamped["captured_at"]
        assert stamped["fingerprint"] == bare["fingerprint"]

    def test_environment_facts_present(self):
        env = environment_fingerprint()
        for key in (
            "git_sha",
            "git_dirty",
            "python",
            "numpy",
            "platform",
            "machine",
            "cpu_count",
        ):
            assert key in env
        assert env["cpu_count"] >= 1

    def test_measurement_config_strips_location_and_worker_fields(self):
        config = MeterstickConfig(
            duration_s=3.0, output_dir="somewhere/else", world_dir="w"
        ).to_dict()
        stripped = measurement_config(config)
        for field in (
            "output_dir",
            "world_dir",
            "world_cache_dir",
        ):
            assert field not in stripped
        assert stripped["duration_s"] == 3.0

    def test_fingerprint_ignores_storage_location(self):
        base = MeterstickConfig(duration_s=3.0).to_dict()
        moved = MeterstickConfig(
            duration_s=3.0, output_dir="elsewhere", world_dir="w"
        ).to_dict()
        assert (
            provenance_fingerprint(measurement_config(base))["fingerprint"]
            == provenance_fingerprint(measurement_config(moved))[
                "fingerprint"
            ]
        )


class TestWiring:
    def test_iterations_carry_deterministic_provenance(self):
        config = MeterstickConfig(
            servers=["vanilla"], duration_s=1.5, seed=9
        )
        first = run_server_chain(config, "vanilla")
        second = run_server_chain(config, "vanilla")
        prov = first[0].provenance
        assert prov["server"] == "vanilla"
        assert "captured_at" not in prov
        # The determinism contract CI relies on: same seed, same config,
        # same checkout -> identical fingerprint (and identical bytes).
        assert prov["fingerprint"] == second[0].provenance["fingerprint"]
        assert [it.to_dict() for it in first] == [
            it.to_dict() for it in second
        ]

    def test_manifest_provenance_is_timestamped_and_surfaced(self, tmp_path):
        spec = CampaignSpec(
            name="prov",
            servers=["vanilla"],
            iterations=1,
            duration_s=1.0,
            seed=3,
            output_dir=str(tmp_path / "out"),
        )
        store = JobStore(spec.output_dir)
        CampaignExecutor(spec, store=store).run()
        manifest = store.read_manifest()
        prov = manifest["provenance"]
        assert prov["captured_at"]
        assert prov["fingerprint"]
        # Record lines carry the iteration fingerprint.
        lines = store.read_job_telemetry(store.manifest_jobs()[0].job_id)
        assert all(line["provenance"]["fingerprint"] for line in lines)

    def test_records_stay_byte_identical_across_reruns(self, tmp_path):
        records = []
        for run in ("a", "b"):
            spec = CampaignSpec(
                name="prov",
                servers=["vanilla"],
                iterations=1,
                duration_s=1.0,
                seed=3,
                output_dir=str(tmp_path / run),
            )
            store = JobStore(spec.output_dir)
            CampaignExecutor(spec, store=store).run()
            job_id = store.manifest_jobs()[0].job_id
            raw = store.telemetry_path(job_id).read_bytes()
            # Output dirs differ between the two runs, so byte-identity
            # holds precisely because provenance strips location fields.
            assert json.loads(raw.splitlines()[0])["provenance"][
                "fingerprint"
            ]
            records.append(raw)
        assert records[0] == records[1]
