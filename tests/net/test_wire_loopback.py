"""End-to-end loopback: ``repro serve`` + ``repro clients`` over real
sockets, producing the standard campaign artifacts.

One short tcp cell is served on an ephemeral loopback port while a
3-bot client fleet runs against it from another thread.  The on-disk
results must be the normal campaign layout — the manifest and the job's
record, one streamed line per iteration and then its commit line — with
real (nonzero) ``wire_*`` measurements and client-measured response
times folded in.  A second cell takes a connect storm: a dozen clients
joining at once, each sent its whole view, through the server's bounded
flush window.
"""

import asyncio
import json
import threading

import pytest

from repro.campaign.store import JobStore
from repro.mlg import wirecodec as wc
from repro.net import run_clients, serve_and_join, serve_cell
from repro.net import server as wire_server
from repro.net.serve import SERVE_THREAD
from repro.reporting.dataset import sidecar_row

N_BOTS = 3


@pytest.fixture(scope="module")
def loopback_run(tmp_path_factory):
    """Serve one 1-second tcp cell and run 3 wire clients against it."""
    root = tmp_path_factory.mktemp("wire")
    out_dir = root / "campaign-out"
    spec_path = root / "wire.yaml"
    spec_path.write_text(
        json.dumps(
            {
                "name": "wire-loopback",
                "servers": ["vanilla"],
                "workloads": ["players"],
                "environments": ["das5"],
                "bot_counts": [N_BOTS],
                "iterations": 1,
                "duration_s": 1.0,
                "seed": 7,
                "transport": "tcp",
                "output_dir": str(out_dir),
            }
        )
    )
    served, clients = serve_and_join(
        spec_path,
        lambda port: run_clients(
            "127.0.0.1", port, N_BOTS, stagger_s=0.05, seed=7
        ),
    )
    return {"serve": served, "clients": clients, "store": JobStore(out_dir)}


class TestLoopbackCampaign:
    def test_clients_connected_and_sampled(self, loopback_run):
        clients = loopback_run["clients"]
        assert clients["connected"] == N_BOTS
        assert clients["ticks_seen"] > 0
        assert clients["samples"] >= 1
        assert clients["response_p50_ms"] > 0

    def test_serve_summary_and_record(self, loopback_run):
        summary = loopback_run["serve"]
        assert summary["iterations"] == 1
        assert not summary["crashed"]
        store = loopback_run["store"]
        iterations = store.load_job(summary["job_id"])
        assert iterations is not None and len(iterations) == 1
        it = iterations[0]
        # Client-side samples streamed back over the wire and were
        # folded into the server's measurement record.
        assert it.response_times_ms
        assert it.telemetry["response_ms"]["count"] == len(
            it.response_times_ms
        )
        assert it.provenance.get("fingerprint")

    def test_manifest_is_standard(self, loopback_run):
        manifest = loopback_run["store"].read_manifest()
        assert manifest["name"] == "wire-loopback"
        assert manifest["spec"]["transport"] == "tcp"
        assert len(manifest["jobs"]) == 1
        assert manifest["provenance"]["fingerprint"]
        assert "hygiene" in manifest["provenance"]

    def test_record_has_real_wire_metrics(self, loopback_run):
        store = loopback_run["store"]
        job_id = loopback_run["serve"]["job_id"]
        lines = store.read_job_telemetry(job_id)
        assert len(lines) == 1
        wire = lines[0]["telemetry"]["wire"]
        assert wire["wire_bytes_out"]["total"] > 0
        assert wire["wire_bytes_in"]["total"] > 0
        assert wire["wire_connects"]["count"] == N_BOTS
        assert wire["wire_flush_us"]["count"] > 0

    def test_report_rows_carry_wire_columns(self, loopback_run):
        store = loopback_run["store"]
        manifest = store.read_manifest()
        job_dict = manifest["jobs"][0]
        line = store.read_job_telemetry(job_dict["job_id"])[0]
        row = sidecar_row(job_dict, line)
        assert row["wire_bytes_out"] > 0
        assert row["wire_bytes_in"] > 0
        assert row["wire_connects"] == N_BOTS
        assert row["wire_flush_p99_us"] > 0
        # An inproc record line has no wire section: columns stay None.
        inproc_line = json.loads(json.dumps(line))
        del inproc_line["telemetry"]["wire"]
        inproc_row = sidecar_row(job_dict, inproc_line)
        assert inproc_row["wire_bytes_out"] is None
        assert inproc_row["wire_connects"] is None

    def test_record_refuses_silent_clobber(self, loopback_run):
        spec_path = loopback_run["store"].root.parent / "wire.yaml"
        with pytest.raises(FileExistsError):
            serve_cell(spec_path, cell=0)


def _write_spec(path, out_dir, **fields):
    path.write_text(
        json.dumps(
            {
                "servers": ["vanilla"],
                "workloads": ["control"],
                "environments": ["das5"],
                "duration_s": 1.0,
                "transport": "tcp",
                "output_dir": str(out_dir),
                **fields,
            }
        )
    )
    return path


class TestServeRefusals:
    def test_inproc_cell_is_refused_before_anything_is_written(
        self, tmp_path
    ):
        # Served over sockets it would be stamped `transport: inproc`.
        spec_path = _write_spec(
            tmp_path / "inproc.json", tmp_path / "out", transport="inproc"
        )
        with pytest.raises(ValueError, match="`repro run`"):
            serve_cell(spec_path)
        assert not (tmp_path / "out").exists()

    def test_foreign_store_keeps_its_manifest(self, loopback_run, tmp_path):
        # A cell of a *different* spec served into a used output_dir must
        # not replace the manifest under the records already there.
        store = loopback_run["store"]
        before = store.manifest_path.read_bytes()
        spec_path = _write_spec(tmp_path / "other.json", store.root, seed=8)
        with pytest.raises(ValueError, match="different campaign spec"):
            serve_cell(spec_path)
        assert store.manifest_path.read_bytes() == before

    def test_serve_and_join_raises_the_serve_threads_error(self, tmp_path):
        spec_path = _write_spec(
            tmp_path / "inproc.json", tmp_path / "out", transport="inproc"
        )
        fleets = []
        with pytest.raises(ValueError, match="`repro run`"):
            serve_and_join(spec_path, fleets.append)
        assert fleets == []  # nothing bound, so no fleet ran


def test_connect_storm_writes_no_buffer_above_the_window(
    tmp_path, monkeypatch
):
    # Twelve clients join in the same instant, and each is owed its whole
    # view: hundreds of 13 KB chunk frames, megabytes a client.  The
    # server writes them in pieces of at most the window, or one frame.
    n_bots = 12
    window = wire_server._PIECE_BYTES
    oversized = []
    served = []
    write = asyncio.StreamWriter.write

    def spy(self, data):
        if threading.current_thread().name == SERVE_THREAD:
            served.append(len(data))
            if len(data) > window:
                body_len, body_at = wc.decode_varint(data, 0)
                if body_at + body_len != len(data):
                    oversized.append(len(data))
        write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", spy)
    out_dir = tmp_path / "out"
    spec_path = _write_spec(
        tmp_path / "storm.json",
        out_dir,
        name="wire-storm",
        workloads=["players"],
        bot_counts=[n_bots],
        seed=7,
    )
    summary, clients = serve_and_join(
        spec_path,
        lambda port: run_clients(
            "127.0.0.1", port, n_bots, stagger_s=0, seed=7
        ),
    )
    assert clients["connected"] == n_bots
    store = JobStore(out_dir)
    job_id = summary["job_id"]
    (iteration,) = store.load_job(job_id)
    assert not iteration.crashed
    (line,) = store.read_job_telemetry(job_id)
    wire = line["telemetry"]["wire"]
    assert wire["wire_connects"]["count"] == n_bots
    # The views went out, each larger than the window ...
    assert wire["wire_bytes_out"]["total"] > n_bots * window
    assert sum(served) > wire["wire_bytes_out"]["total"]
    # ... and no write carried more than a window, but a single frame.
    assert oversized == []
