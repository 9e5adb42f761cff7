"""Low-overhead tick-phase span tracing for the simulated server.

Meterstick's tick records say *that* a tick was slow; the tracer says
*which phase* made it slow.  A :class:`Tracer` rides on one server and is
driven by the game loop::

    tracer.begin_tick(tick_index, start_us, report)
    with tracer.span("fluids"):
        server.fluids.tick(...)
    ...
    tracer.end_tick(record, report)

A span does not time wall clocks — the simulation's cost model *is* its
clock.  On a traced tick the game loop runs against a
:class:`TracedWorkReport`, whose ``counts`` dict always aliases the
innermost open span's *segment*: entering a span pushes a fresh segment,
so the engines' ``add``/``merge`` calls run the **unmodified base-class
code path** (zero per-operation overhead); exiting pops the segment —
which now holds exactly the ops recorded while the span was open — and
folds it into the enclosing segment; when the tick ends the tracer prices
every span's segment to simulated microseconds with the variant's cost
table.  Because every count is an integer tally
(exactly representable as a float), segment sums telescope without
rounding: merging the top-level spans of a tick reproduces the tick's
report — and therefore its ``work_us`` and ``breakdown_us`` — bit for
bit (see :func:`merge_span_ops` and the parity tests).

Design constraints, after "Overhead Measurement Noise in Different
Runtime Environments" (PAPERS.md): tracing is **off by default** and the
disabled path (:class:`NullTracer`) performs no bookkeeping at all, so
``trace=False`` runs stay bit-identical with the untraced simulation;
when enabled, recording an op costs exactly what it costs untraced, span
entry/exit is O(distinct ops inside the span), and a **bounded ring**
keeps only the most recent tick dumps; what grows with the run is one
float per phase per tick, like the tick series itself.

On top of the spans:

- each top-level span name's per-tick cost series, summarized
  (:func:`repro.telemetry.summary.summarize`) into the phase statistics
  that campaigns publish in the JSONL job records;
- a slow-tick **flight recorder**: any tick whose wall duration exceeds
  ``slow_tick_factor ×`` the tick budget is dumped — span tree plus the
  top-k most expensive operations of its report — into a bounded anomaly
  deque, spark/watchdog style.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.mlg.workreport import WorkReport
from repro.telemetry.summary import summarize

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TracedWorkReport",
    "Tracer",
    "compact_span",
    "merge_span_ops",
]


class TracedWorkReport(WorkReport):
    """A :class:`WorkReport` whose ``counts`` aliases a segment stack.

    ``segments[0]`` is the base tally; each open span pushes a fresh
    segment dict and repoints ``counts`` at it, so the inherited
    ``add``/``merge`` — the *same code* the untraced simulation runs —
    lands ops in the innermost segment at zero extra cost.  Closing a
    span folds its segment into the enclosing one, so once every span
    has exited ``counts`` is the complete tick tally, arithmetically
    identical to an untraced report's (integer tallies sum exactly in
    any grouping).  Reads that can happen while spans are open
    (``get``/``cost_us`` and everything built on them) merge across the
    stack so mid-tick pricing sees the full picture.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Open-segment stack; ``counts`` always aliases ``segments[-1]``.
        self.segments: list[dict[str, float]] = [self.counts]
        #: The tick's spans, in the order they were entered.
        self.spans: list[Span] = []

    def _merged(self) -> dict[str, float]:
        """The whole tally: the base segment itself while no open span
        holds an op (the game loop prices the tick inside an empty span).
        """
        base, *open_segments = self.segments
        if not any(open_segments):
            return base
        merged = dict(base)
        merged_get = merged.get
        for seg in open_segments:
            for op, n in seg.items():
                merged[op] = merged_get(op, 0.0) + n
        return merged

    def get(self, op: str) -> float:
        total = 0.0
        for seg in self.segments:
            total += seg.get(op, 0.0)
        return total

    def cost_us(self, cost_table) -> dict[str, float]:
        get = cost_table.get
        return {
            op: n * get(op, 0.0)
            for op, n in self._merged().items()
            if get(op, 0.0) > 0.0
        }

    def nonzero_ops(self):
        return (op for op, n in self._merged().items() if n > 0)

    def copy(self) -> WorkReport:
        return WorkReport(dict(self._merged()))


class _NullSpan:
    """Reusable no-op context manager handed out when tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every hook is a no-op.

    The game loop calls the tracer unconditionally; with tracing off it
    gets this stateless singleton, whose spans never touch the report —
    which is what keeps ``trace=False`` runs bit-identical with the
    untraced simulation.
    """

    __slots__ = ()

    enabled = False

    def begin_tick(self, tick_index, start_us) -> WorkReport:
        return WorkReport()

    def span(self, name):
        return _NULL_SPAN

    def end_tick(self, record, report) -> None:
        pass

    def snapshot(self) -> dict:
        return {"enabled": False}


NULL_TRACER = NullTracer()


class Span:
    """One traced section of a tick: an owned segment of the report.

    Entering pushes the span's own ``ops`` dict onto the report's stack
    as a fresh segment (ops recorded inside land there via the unmodified
    ``WorkReport`` code path); exiting pops it — the segment *is* the
    span's delta op counts — and folds it into the enclosing segment.
    The tracer prices every span of a tick (``cost_us``) when the tick
    ends.  ``note()`` attaches extra key/values (the pricing span records
    ``work_us`` and ``duration_us`` this way).  Spans nest; ``depth``
    starts at 1 for top-level phases and, because children fold into
    their parent's segment before the parent closes, a parent's ops
    include its children's.
    """

    # No ``__init__``: ``Tracer.span`` fills the slots itself, which spares
    # every span of every traced tick a Python-level constructor frame.
    # Enter and exit reach nothing but the span and its report: between
    # two spans an engine has run, so whatever they touch comes from cold
    # memory, and that, not the bytecode, is what a span costs.  ``args``
    # holds ``note()``'s key/values, ``None`` on the many spans without.
    __slots__ = ("name", "depth", "ops", "cost_us", "args", "_report")

    def note(self, **kwargs) -> None:
        """Attach extra values to the span (rendered as trace args)."""
        if self.args is None:
            self.args = kwargs
        else:
            self.args.update(kwargs)

    def __enter__(self) -> "Span":
        report = self._report
        report.spans.append(self)
        segments = report.segments
        # The base segment is depth 0, so the stack's length before the
        # push is this span's depth.
        self.depth = len(segments)
        segments.append(self.ops)
        report.counts = self.ops
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        report = self._report
        # The report keeps its closed spans; a closed span forgets the
        # report, so a traced tick leaves no reference cycle behind.
        self._report = None
        segments = report.segments
        seg = segments.pop()
        report.counts = outer = segments[-1]
        if seg:
            outer_get = outer.get
            for op, n in seg.items():
                outer[op] = outer_get(op, 0.0) + n
        return False


def merge_span_ops(
    spans,
    *,
    top_level_only: bool = True,
    exclude: tuple[str, ...] = (),
) -> dict[str, float]:
    """Merge span op deltas back into one counts dict.

    Spans are merged in recorded (pre-)order; op counts are integer
    tallies, which sum exactly in any grouping, so the result reproduces
    the original report's counts exactly.  Pricing the merged dict
    through :class:`WorkReport` therefore reproduces
    ``work_us``/``breakdown_us`` bit for bit.
    """
    merged: dict[str, float] = {}
    for span in spans:
        if top_level_only and span.depth != 1:
            continue
        if span.name in exclude:
            continue
        for op, n in span.ops.items():
            merged[op] = merged.get(op, 0.0) + n
    return merged


def compact_span(span: Span) -> dict:
    """JSON-able compact form: ``n``ame, ``d``epth, cost in ``us``."""
    compact = {"n": span.name, "d": span.depth, "us": span.cost_us}
    if span.args:
        compact["args"] = dict(span.args)
    return compact


class Tracer:
    """Span tracer + flight recorder for one server's tick loop.

    ``cost_table`` is the variant's op→µs pricing (``end_tick`` prices the
    tick's span deltas with it); ``budget_us`` the 50 ms tick budget the slow-tick
    threshold multiplies.  Every tick is traced and watched.
    """

    enabled = True

    #: Tick dumps the ring keeps, and how many :meth:`snapshot` exports.
    RETAIN_TICKS = 256
    EXPORT_TICKS = 128
    #: Slow-tick dumps kept, and the most expensive ops each one lists.
    MAX_ANOMALIES = 64
    TOP_OPS = 8

    def __init__(
        self,
        cost_table,
        *,
        budget_us: int,
        slow_tick_factor: float = 3.0,
    ) -> None:
        if slow_tick_factor <= 0:
            raise ValueError(
                f"slow_tick_factor must be positive: {slow_tick_factor!r}"
            )
        if budget_us <= 0:
            raise ValueError(f"budget_us must be positive: {budget_us!r}")
        self.cost_table = cost_table
        self.budget_us = budget_us
        self.slow_tick_factor = slow_tick_factor
        #: Ring of the most recent per-tick span dumps, oldest first.
        self._ring: deque = deque(maxlen=self.RETAIN_TICKS)
        #: Simulated µs per traced tick, one list per top-level span name.
        self.phases: defaultdict[str, list[float]] = defaultdict(list)
        #: Bounded slow-tick flight-recorder dumps, oldest dropped first.
        self.anomalies: deque = deque(maxlen=self.MAX_ANOMALIES)
        self.ticks_seen = 0
        self.slow_ticks = 0
        #: The open tick's report; ``None`` between ticks, when spans
        #: (a chunk load during ``install``, say) trace nothing.
        self._report: TracedWorkReport | None = None

    # -- per-tick driver (called by the game loop) --------------------------

    def begin_tick(self, tick_index: int, start_us: int) -> WorkReport:
        """Arm the tracer for one tick and hand the game loop its report,
        a :class:`TracedWorkReport` (spans need its segment stack)."""
        self.ticks_seen += 1
        self._report = TracedWorkReport()
        return self._report

    def span(self, name: str):
        """A context manager tracing one named section of the tick."""
        if self._report is None:
            return _NULL_SPAN
        span = Span()
        span._report = self._report
        span.name = name
        span.depth = 0
        span.ops = {}
        span.cost_us = 0.0
        span.args = None
        return span

    def end_tick(self, record, report) -> None:
        """Close the tick: price its spans, ring the dump, watch slowness."""
        spans = report.spans
        price = self.cost_table.get
        phases = self.phases
        for span in spans:
            if span.ops:
                cost = 0.0
                for op, n in span.ops.items():
                    cost += n * price(op, 0.0)
                span.cost_us = cost
            if span.depth == 1:
                phases[span.name].append(span.cost_us)
        dump = {
            "tick": record.index,
            "start_us": record.start_us,
            "duration_us": record.duration_us,
            "work_us": record.work_us,
            "spans": spans,
        }
        self._ring.append(dump)
        self._report = None
        if record.duration_us > self.slow_tick_factor * self.budget_us:
            self.slow_ticks += 1
            self.anomalies.append(self._anomaly(record, report, spans))

    # -- flight recorder -----------------------------------------------------

    def _anomaly(self, record, report, spans) -> dict:
        """One slow-tick dump: vitals, top-k op costs, span tree."""
        costs = report.cost_us(self.cost_table)
        top = sorted(costs.items(), key=lambda kv: (-kv[1], kv[0]))
        top = top[: self.TOP_OPS]
        return {
            "tick": record.index,
            "start_us": record.start_us,
            "duration_us": record.duration_us,
            "work_us": record.work_us,
            "budget_us": self.budget_us,
            "factor": record.duration_us / self.budget_us,
            "clients": record.clients,
            "entities": record.entities,
            "breakdown_us": dict(record.breakdown_us),
            "top_ops": [[op, report.get(op), us] for op, us in top],
            "spans": [compact_span(span) for span in spans],
        }

    # -- introspection / export ----------------------------------------------

    @property
    def last_dump(self) -> dict | None:
        """The most recent tick's dump (spans as objects)."""
        return self._ring[-1] if self._ring else None

    def recent_ticks(self, max_ticks: int | None = None) -> list[dict]:
        """Retained tick dumps, oldest first."""
        dumps = list(self._ring)
        if max_ticks is None:
            return dumps
        return dumps[max(0, len(dumps) - max_ticks):]

    def snapshot(self) -> dict:
        """JSON-able trace state: knobs, phase stats, anomalies, span dumps.

        This is what :func:`repro.core.experiment.run_iteration` files
        under ``telemetry["trace"]`` — and therefore what the job records
        stream and ``repro trace export`` renders.
        """
        return {
            "enabled": True,
            "slow_tick_factor": self.slow_tick_factor,
            "budget_us": self.budget_us,
            "ticks_seen": self.ticks_seen,
            "slow_ticks": self.slow_ticks,
            "phases": {
                name: summarize(costs)
                for name, costs in sorted(self.phases.items())
            },
            "anomaly_count": len(self.anomalies),
            "anomalies": list(self.anomalies),
            "ticks": [
                {
                    "tick": dump["tick"],
                    "start_us": dump["start_us"],
                    "duration_us": dump["duration_us"],
                    "work_us": dump["work_us"],
                    "spans": [compact_span(span) for span in dump["spans"]],
                }
                for dump in self.recent_ticks(self.EXPORT_TICKS)
            ],
        }
