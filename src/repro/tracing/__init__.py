"""Observability for the simulated server: spans, provenance, exports.

- :mod:`repro.tracing.tracer` — tick-phase span tracing + the slow-tick
  flight recorder (off by default; bit-identical when off);
- :mod:`repro.tracing.provenance` — environment/config fingerprints for
  campaign manifests and iteration results;
- :mod:`repro.tracing.chrome` — Chrome trace-event (Perfetto) rendering
  of campaign traces.

What the simulator costs the host is measured outside the package, by
the paired A/B in ``benchmarks/hostclock``.
"""

from repro.tracing.chrome import render_campaign_trace
from repro.tracing.provenance import (
    environment_fingerprint,
    provenance_fingerprint,
)
from repro.tracing.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    compact_span,
    merge_span_ops,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "compact_span",
    "environment_fingerprint",
    "merge_span_ops",
    "provenance_fingerprint",
    "render_campaign_trace",
]
