"""Fixtures shared by the telemetry tests: the objects a run builds, and
one traced cell served over loopback."""

import json
import threading
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.campaign import JobStore
from repro.core import experiment
from repro.core.collectors import SystemMetricsCollector
from repro.mlg import server as server_module
from repro.net import run_clients, serve_cell
from repro.telemetry import tap
from repro.telemetry.bus import TelemetryBus
from repro.tracing.tracer import Tracer

PINS = json.loads((Path(__file__).parent / "sidecar_pins.json").read_text())

N_CLIENTS = 2


@contextmanager
def recording():
    """Every telemetry bus, tracer and system collector a run builds
    inside the block, in creation order, by kind.  The patches end with
    the block, so a server built after it is neither recorded nor kept
    alive by the lists."""
    made = {"bus": [], "tracer": [], "system": []}

    def recording_class(cls, kind):
        class Recording(cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made[kind].append(self)

        return Recording

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            tap, "TelemetryBus", recording_class(TelemetryBus, "bus")
        )
        patch.setattr(
            server_module, "Tracer", recording_class(Tracer, "tracer")
        )
        patch.setattr(
            experiment,
            "SystemMetricsCollector",
            recording_class(SystemMetricsCollector, "system"),
        )
        yield made


@pytest.fixture
def created():
    """What :func:`recording` records while the test runs."""
    with recording() as made:
        yield made


@pytest.fixture(scope="package")
def wire_cell(tmp_path_factory):
    """The pinned traced ``farm`` cell served over loopback: its record
    line, the iteration loaded from that record, the bus and tracer its
    server built, its system collector's sampled CPU and memory series,
    and a weak reference to the served server.

    The fixture lives for the whole session (this directory is not a
    package), so it keeps no object that reaches the server: the collector
    would hold the farm server and its world through ``collector.server``,
    and the ``made`` lists, which each recording class's ``__init__``
    closes over, would hold the collector."""
    with recording() as made:
        cell = _serve_wire_cell(tmp_path_factory)
    ((cell["bus"],), (cell["tracer"],), (system,)) = (
        made[kind] for kind in ("bus", "tracer", "system")
    )
    cell["system"] = {
        field: [float(getattr(sample, field)) for sample in system.samples]
        for field in ("cpu_utilization", "memory_bytes")
    }
    cell["server"] = weakref.ref(system.server)
    for objects in made.values():
        objects.clear()
    return cell


def _serve_wire_cell(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("catalog-wire")
    spec_path = root / "wire.json"
    spec_path.write_text(
        json.dumps(
            dict(PINS["cells"]["wire"]["spec"], output_dir=str(root / "out"))
        )
    )
    listening = threading.Event()
    box = {}

    def on_listen(port):
        box["port"] = port
        listening.set()

    def serve():
        try:
            box["serve"] = serve_cell(spec_path, cell=0, on_listen=on_listen)
        except BaseException as exc:  # surface into the test thread
            box["error"] = exc
            listening.set()

    thread = threading.Thread(target=serve)
    thread.start()
    assert listening.wait(30), "serve_cell never bound its socket"
    if "error" not in box:
        run_clients("127.0.0.1", box["port"], N_CLIENTS, stagger_s=0.05, seed=7)
    thread.join(60)
    assert not thread.is_alive(), "serve_cell did not finish"
    if "error" in box:
        raise box["error"]
    store = JobStore(root / "out")
    job_id = box["serve"]["job_id"]
    (line,) = store.read_job_telemetry(job_id)
    (iteration,) = store.load_job(job_id)
    return {"line": line, "iteration": iteration}
