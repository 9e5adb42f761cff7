"""Live observability plane: snapshots, endpoint, dashboard.

Everything here is pull-based and off by default (``obs: false``): a run
without the endpoint is bit-identical with one that never imported this
package, and a scraped run only pays for the scrapes it serves.
"""

from repro.obs.aggregate import campaign_snapshot
from repro.obs.endpoint import ObsHttpServer
from repro.obs.registry import (
    ObsSnapshot,
    render_json,
    render_prometheus,
    telemetry_obs_snapshot,
)
from repro.obs.top import fetch_snapshot, render_top, run_top

__all__ = [
    "ObsHttpServer",
    "ObsSnapshot",
    "campaign_snapshot",
    "fetch_snapshot",
    "render_json",
    "render_prometheus",
    "render_top",
    "run_top",
    "telemetry_obs_snapshot",
]
