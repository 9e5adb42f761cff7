"""Campaign-wide obs aggregation: fold worker deltas into one snapshot.

The campaign executor's workers stream one line per finished iteration
into their job records; an in-parent follower tails the records and
folds each iteration line here, and the parent serves a single endpoint
for the whole campaign.

How a metric's iterations combine is its catalog entry's ``combine``
rule (:mod:`repro.telemetry.catalog`):

- **Counters sum exactly** (ticks, response samples, wire bytes,
  connects, per-phase microseconds, slow ticks, anomaly dumps) — a
  scrape's counter is monotone and never exceeds the final record sum.
- **Maxima merge exactly** (``tick_ms`` max, ``entities_peak``);
  ``entities_last`` is the latest fold's.
- **Quantiles, CoV, ISR and the overloaded fraction average**, weighted
  by the sample count of their own section (tick quantiles by ticks,
  response quantiles by response samples, the flush p99 by flushes): the
  per-iteration summaries are not mergeable at full fidelity, so these
  campaign-level gauges are an approximation, clearly scoped to the
  dashboard (reports keep using the exact per-iteration values).
"""

from __future__ import annotations

import threading

from repro.obs.registry import ObsSnapshot
from repro.telemetry.catalog import lookup, scraped

__all__ = ["CampaignObsAggregate", "campaign_meta"]


def campaign_meta(name: str, provenance: dict | None) -> dict:
    """The ``meta`` a campaign's obs snapshots carry: its name, plus the
    hygiene status and warn count its manifest provenance recorded."""
    meta: dict = {"campaign": name}
    hygiene = (provenance or {}).get("hygiene")
    if hygiene:
        meta["hygiene"] = {
            "status": hygiene.get("status"),
            "warn_count": hygiene.get("warn_count", 0),
        }
    return meta


class CampaignObsAggregate:
    """Thread-safe fold of per-iteration record lines."""

    def __init__(self, n_jobs: int, meta: dict | None = None) -> None:
        self.n_jobs = n_jobs
        self.meta = dict(meta or {})
        self._lock = threading.Lock()
        self._jobs_observed: set[str] = set()
        self._iterations = 0
        #: Exposition name -> combined value so far (a ``mean``'s weighted
        #: total; label -> sum for a family).  Starts at the zero of every
        #: metric an empty line would carry; wire and trace names appear
        #: once a line with the section has been folded.
        self._combined: dict = {
            metric.name: {} if metric.label_key else 0.0
            for metric, _ in scraped({})
        }
        #: Exposition name -> summed weight, for ``mean`` metrics.
        self._weights: dict[str, float] = {}

    def fold(self, line: dict) -> None:
        """Fold one record line (one finished iteration)."""
        with self._lock:
            job_id = line.get("job_id")
            if job_id:
                self._jobs_observed.add(job_id)
            self._iterations += 1
            for metric, value in scraped(line):
                name = metric.name
                if metric.label_key:
                    family = self._combined.setdefault(name, {})
                    for label, sample in (value or {}).items():
                        family[label] = family.get(label, 0.0) + sample
                    continue
                value = float(value or 0.0)
                so_far = self._combined.get(name, 0.0)
                if metric.combine == "sum":
                    self._combined[name] = so_far + value
                elif metric.combine == "max":
                    self._combined[name] = max(so_far, value)
                elif metric.combine == "last":
                    self._combined[name] = value
                else:  # mean, weighted by a count beside the value
                    weight = float(
                        lookup(line, (*metric.path[:-1], metric.weight)) or 0
                    )
                    self._combined[name] = so_far + weight * value
                    self._weights[name] = (
                        self._weights.get(name, 0.0) + weight
                    )

    def snapshot(self) -> ObsSnapshot:
        """One campaign-wide snapshot of everything folded so far."""
        snap = ObsSnapshot(self.meta)
        with self._lock:
            for name, value in self._combined.items():
                if isinstance(value, dict):
                    for label, sample in value.items():
                        snap.export(name, sample, label=label)
                elif name in self._weights:
                    weight = self._weights[name]
                    snap.export(name, value / weight if weight else 0.0)
                else:
                    snap.export(name, value)
            snap.export("repro_jobs_total", self.n_jobs)
            snap.export("repro_jobs_observed", len(self._jobs_observed))
            snap.export("repro_iterations_total", self._iterations)
        return snap
