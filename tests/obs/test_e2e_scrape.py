"""End-to-end obs scrape: a wire loopback cell served with ``obs: true``,
scraped over HTTP while the fleet is still connected.

Asserts the scrape contract from the obs registry docstring: the body is
valid Prometheus text exposition, stable-sorted with no timestamps, and
its counters are monotone between scrapes and never exceed the final
sidecar's totals.
"""

import json
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.campaign.store import JobStore
from repro.net import run_clients, serve_cell

N_BOTS = 2

#: Prometheus text exposition line shapes (no timestamp field allowed).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+=\"[^\"]*\"\})? "
    r"-?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$"
)


def scrape(url: str, deadline_s: float = 20.0) -> str:
    """GET the Prometheus body, retrying through the 503 warm-up."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            with urllib.request.urlopen(url, timeout=5) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as err:
            err.close()  # it holds the response's socket
            if err.code != 503 or time.monotonic() > deadline:
                raise
            time.sleep(0.05)


def counters(body: str) -> dict[str, float]:
    """Non-help sample lines of counter families, name -> value."""
    names = set()
    for line in body.splitlines():
        match = re.match(r"^# TYPE (\S+) counter$", line)
        if match:
            names.add(match.group(1))
    values = {}
    for line in body.splitlines():
        if line.startswith("#"):
            continue
        name = line.split("{")[0].split(" ")[0]
        if name in names and "{" not in line:
            values[name] = float(line.rsplit(" ", 1)[1])
    return values


@pytest.fixture(scope="module")
def scraped_run(tmp_path_factory):
    """Serve one obs-enabled tcp cell; scrape twice while clients run."""
    root = tmp_path_factory.mktemp("obs-wire")
    out_dir = root / "campaign-out"
    spec_path = root / "wire.yaml"
    spec_path.write_text(
        json.dumps(
            {
                "name": "obs-loopback",
                "servers": ["vanilla"],
                "workloads": ["players"],
                "environments": ["das5"],
                "bot_counts": [N_BOTS],
                "iterations": 1,
                "duration_s": 2.0,
                "seed": 5,
                "transport": "tcp",
                "obs": True,
                "obs_port": 0,
                "obs_scrape_grace": 0.0,
                "output_dir": str(out_dir),
            }
        )
    )
    listening = threading.Event()
    box = {}

    def on_listen(port):
        box["port"] = port
        listening.set()

    def on_obs(url):
        box["obs_url"] = url

    def serve():
        try:
            box["serve"] = serve_cell(
                spec_path, cell=0, on_listen=on_listen, on_obs=on_obs
            )
        except BaseException as exc:
            box["error"] = exc
            listening.set()

    thread = threading.Thread(target=serve)
    thread.start()
    assert listening.wait(30), "serve_cell never bound its socket"
    if "error" in box:
        raise box["error"]
    assert "obs_url" in box, "obs: true spec must fire on_obs before listen"

    trace_out = out_dir / "telemetry" / "fleet.clientspans.jsonl"

    def clients():
        box["clients"] = run_clients(
            "127.0.0.1",
            box["port"],
            N_BOTS,
            stagger_s=0.05,
            seed=5,
            trace_out=trace_out,
        )

    fleet = threading.Thread(target=clients)
    fleet.start()
    box["scrape_1"] = scrape(box["obs_url"])
    time.sleep(0.4)
    box["scrape_2"] = scrape(box["obs_url"])
    box["scrape_json"] = scrape(box["obs_url"] + ".json")
    fleet.join(60)
    thread.join(60)
    assert not thread.is_alive(), "serve_cell did not finish"
    if "error" in box:
        raise box["error"]
    box["store"] = JobStore(out_dir)
    return box


class TestMidRunScrape:
    def test_body_is_valid_prometheus_exposition(self, scraped_run):
        body = scraped_run["scrape_1"]
        assert body.endswith("\n")
        for line in body.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"

    def test_families_are_stable_sorted(self, scraped_run):
        for body in (scraped_run["scrape_1"], scraped_run["scrape_2"]):
            names = [
                line.split(" ")[2]
                for line in body.splitlines()
                if line.startswith("# HELP ")
            ]
            assert names == sorted(names)

    def test_counters_monotone_and_bounded_by_final_sidecar(
        self, scraped_run
    ):
        first = counters(scraped_run["scrape_1"])
        second = counters(scraped_run["scrape_2"])
        assert second["repro_ticks_total"] > 0
        for name, value in first.items():
            assert second[name] >= value, name
        store = scraped_run["store"]
        job_id = scraped_run["serve"]["job_id"]
        final = store.read_job_telemetry(job_id)[-1]["telemetry"]
        assert second["repro_ticks_total"] <= final["tick"]["ticks"]
        assert (
            second["repro_wire_bytes_out_total"]
            <= final["wire"]["wire_bytes_out"]["total"]
        )

    def test_json_body_carries_run_meta(self, scraped_run):
        doc = json.loads(scraped_run["scrape_json"])
        assert doc["schema"] == "repro-obs/v1"
        assert doc["meta"]["job_id"] == scraped_run["serve"]["job_id"]
        assert doc["meta"]["cell"]
        store = scraped_run["store"]
        assert store.read_manifest()["spec"]["obs"] is True

    def test_endpoint_down_after_chain_exits(self, scraped_run):
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(scraped_run["obs_url"], timeout=2)


class TestClientSpansOnTheWire:
    def test_fleet_streamed_spans_with_server_tick_ids(self, scraped_run):
        summary = scraped_run["clients"]
        assert summary["span_lines"] > 0
        store = scraped_run["store"]
        lines = [
            json.loads(raw)
            for raw in (store.telemetry_dir / "fleet.clientspans.jsonl")
            .read_text()
            .splitlines()
        ]
        assert len(lines) == summary["span_lines"]
        assert {line["client"] for line in lines} == set(range(N_BOTS))
        for line in lines[:20]:
            assert line["tick"] >= 0
            assert line["now_us"] > 0
            assert line["step_us"] >= 0

    def test_trace_export_merges_client_processes(self, scraped_run, capsys):
        from repro.campaign.cli import main as cli_main

        store = scraped_run["store"]
        assert cli_main(["trace", "export", str(store.root)]) == 0
        captured = capsys.readouterr()
        assert "Merged" in captured.out
        assert "client process(es)" in captured.out
        doc = json.loads((store.root / "export" / "trace.json").read_text())
        assert doc["otherData"]["client_processes"] == N_BOTS

    def test_wire_campaign_without_spans_explains_itself(
        self, tmp_path, capsys
    ):
        from repro.campaign import CampaignSpec, JobStore as Store
        from repro.campaign.cli import main as cli_main

        spec = CampaignSpec(
            name="bare-wire",
            servers=["vanilla"],
            iterations=1,
            duration_s=1.0,
            transport="tcp",
            output_dir=str(tmp_path / "out"),
        )
        Store(spec.output_dir).write_manifest(spec, [])
        assert cli_main(["trace", "export", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert "no client spans found" in captured.err
        assert "--trace-out" in captured.err
