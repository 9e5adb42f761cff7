"""The metric catalog, checked by running the system against it.

``repro.telemetry.catalog`` is the one declaration of every metric; lint
rules MSL005 / MSL008 used to compare its predecessors' copies by parsing
them.  These tests run one cell per transport instead and compare what
the bus, the sidecar line and the scrape bodies actually hold with what
is declared — both directions, so a stream nothing declares, an entry
nothing produces and an export nothing catalogues each fail here.

``sidecar_pins.json`` holds two sidecar lines captured at the commit
before the catalog existed (one traced ``transport: tcp`` cell, one plain
in-process cell) with what that commit's hand-written readers made of
them: the report row, both scrape bodies, the ``status`` frame, and the
message ``validate_output`` gives an unknown metric.  Since then the
lines have lost their top-level ``isr`` (the one ISR sits under
``telemetry.tick``), and the in-process line was re-captured once its
quantiles became exact percentiles of its series.  The catalog's
readers must still give every one of those bytes, in that order; a
column or an exposition name added since shows up between them and is
not pinned.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, JobPlanner, JobStore
from repro.campaign.cli import _status_frame
from repro.core import run_iteration
from repro.obs import (
    campaign_snapshot,
    render_json,
    render_prometheus,
    telemetry_obs_snapshot,
)
from repro.reporting.dataset import sidecar_row
from repro.reporting.spec import METRIC_FIELDS, validate_output
from repro.telemetry.catalog import (
    CATALOG,
    EXPOSITION,
    TAP_STREAMS,
    WIRE_STREAMS,
)

PINS = json.loads((Path(__file__).parent / "sidecar_pins.json").read_text())


@pytest.fixture(scope="module")
def wire_line(wire_cell):
    return wire_cell["line"]


def in_order(pinned, current) -> bool:
    """Is ``pinned`` a subsequence of ``current``?"""
    rest = iter(current)
    return all(item in rest for item in pinned)


def published(bus) -> list[str]:
    """The streams that received a sample (``wire_metrics_snapshot`` and
    the tap register theirs up front, so being on the bus proves
    nothing)."""
    return [name for name in sorted(bus.series) if bus.series[name]]


def reaches(line: dict, path: tuple) -> bool:
    """Does every key of ``path`` exist in ``line``?  (A present ``None``
    — ``warmup_samples`` before steady state — counts as produced.)"""
    node = line
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


class TestStreamsOnTheBus:
    def test_inproc_cell_publishes_exactly_the_tap_streams(self, created):
        before = len(created["bus"])
        run_iteration("farm", "vanilla", "das5", duration_s=1.0, seed=3)
        (bus,) = created["bus"][before:]
        assert published(bus) == sorted(bus.series) == sorted(TAP_STREAMS)

    def test_wire_cell_adds_exactly_the_wire_streams(self, wire_cell):
        bus = wire_cell["bus"]
        assert published(bus) == sorted(bus.series) == sorted(
            TAP_STREAMS + WIRE_STREAMS
        )


class TestEntriesAreProduced:
    def test_every_path_is_in_a_traced_wire_line(self, wire_line):
        missing = [
            metric
            for metric in CATALOG
            if metric.path is not None and not reaches(wire_line, metric.path)
        ]
        assert missing == []


class TestScrapeSurface:
    def test_bodies_carry_every_exposition_name_and_no_other(self, wire_cell):
        bodies = render_prometheus(
            telemetry_obs_snapshot(wire_cell["line"]["telemetry"])
        ) + render_prometheus(campaign_snapshot(JobStore(wire_cell["root"])))
        named = {
            row.split()[2] for row in bodies.splitlines() if "# TYPE" in row
        }
        assert named == set(EXPOSITION)

    def test_a_one_iteration_cell_reads_its_lines_own_scrape(self, wire_cell):
        # Every rule the campaign view applies per cell (summarize over
        # the concatenated series, the median ISR, sums, maxima, the
        # latest line) gives back the one line's own values, bit for bit.
        line = wire_cell["line"]
        own = telemetry_obs_snapshot(line["telemetry"]).values
        campaign = campaign_snapshot(JobStore(wire_cell["root"])).values
        cell = {
            name: value[line["cell"]]
            for name, value in campaign.items()
            if EXPOSITION[name].path is not None
        }
        assert cell == own


@pytest.mark.parametrize("kind", sorted(PINS["cells"]))
class TestParentPins:
    def test_report_row(self, kind):
        pin = PINS["cells"][kind]
        spec = CampaignSpec.from_dict(dict(pin["spec"], output_dir="unused"))
        (job,) = JobPlanner(spec).plan()
        row = sidecar_row(job.to_dict(), pin["line"])
        assert in_order(
            pin["sidecar_row"], [list(item) for item in row.items()]
        )

    def test_scrape_bodies(self, kind):
        pin = PINS["cells"][kind]
        line = pin["line"]
        snap = telemetry_obs_snapshot(
            line["telemetry"],
            meta={"cell": line["cell"], "job_id": line["job_id"]},
        )
        assert in_order(
            pin["prometheus"].splitlines(),
            render_prometheus(snap).splitlines(),
        )
        pinned, body = json.loads(pin["json"]), json.loads(render_json(snap))
        assert pinned["metrics"].items() <= body.pop("metrics").items()
        del pinned["metrics"]
        assert body == pinned

    def test_status_frame(self, kind, tmp_path):
        pin = PINS["cells"][kind]
        spec = CampaignSpec.from_dict(
            dict(pin["spec"], output_dir=str(tmp_path))
        )
        store = JobStore(tmp_path)
        (job,) = JobPlanner(spec).plan()
        store.write_manifest(spec, [job])
        store.telemetry_dir.mkdir(parents=True)
        store.telemetry_path(job.job_id).write_text(
            json.dumps(pin["line"], sort_keys=True) + "\n"
        )
        frame = _status_frame(spec, store, store.status())
        assert frame.replace(str(store.root), "<root>") == pin["status"]


class TestUnknownMetricMessage:
    """Same words as before the catalog; the ``known:`` list may only
    have grown."""

    @pytest.mark.parametrize(
        "kind, output",
        [
            ("pivot", {"pivots": [{"value": "nope"}]}),
            ("plot", {"plots": [{"kind": "matrix", "metric": "tick_p99"}]}),
        ],
    )
    def test_message(self, kind, output):
        with pytest.raises(ValueError) as caught:
            validate_output(output)
        pinned_head, pinned_known = PINS["validate_output"][kind].split("known: ")
        head, known = str(caught.value).split("known: ")
        assert head == pinned_head
        assert known == str(sorted(METRIC_FIELDS))
        assert set(ast.literal_eval(pinned_known)) <= set(METRIC_FIELDS)
