"""The project-specific checkers (MSL001–MSL008).

MSL003 (knob threading) and MSL004 (provenance hygiene) are retired ids:
a knob is declared once, on its dataclass field, so there are no copies
left to compare.

Each checker subscribes to the AST node types it cares about; the engine
walks each tree exactly once and dispatches.  Cross-file rules also get
a ``finalize`` pass over the :class:`~repro.lint.symbols.ProjectSymbols`
registries after every file has been visited.

Rule inventory (the README carries the user-facing table):

=======  ==============================================================
MSL001   determinism hazards in simulation/executor paths: wall-clock
         reads, module-level RNG APIs, unsorted directory listings,
         iteration over set expressions whose order escapes
MSL002   op accounting: every ``Op`` constant priced, bucketed, listed
         in ``Op.ALL``; every ``report.add`` site names a registered Op
MSL005   telemetry registration: every bus-published metric is in the
         reporting sidecar-metric registry (and vice versa)
MSL006   rng discipline: functions taking ``rng``/``seed`` must not
         construct their own generator; ``default_rng()`` must be seeded
MSL007   transport layering: emulation code may import only the session
         boundary (``repro.mlg.transport``/``protocol``), never server
         internals
MSL008   obs registration: every metric exported to the obs endpoint is
         in ``OBS_METRICS`` (and vice versa), and every registry entry
         names a real sidecar stream or obs section as its source
=======  ==============================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext, ProjectContext

__all__ = ["ALL_CHECKERS", "Checker", "RULES"]

#: Directories (project-root-relative, posix) that constitute the
#: deterministic simulation/executor/reporting surface MSL001 polices.
#: ``tracing`` and ``core`` are deliberately out: provenance manifests
#: and the perf-baseline harness legitimately read the wall clock.
SIM_PATH_PREFIXES = (
    "src/repro/mlg/",
    "src/repro/workloads/",
    "src/repro/persistence/",
    "src/repro/campaign/",
    "src/repro/reporting/",
)

#: Wall-clock reads (fully-resolved dotted names).  ``perf_counter`` /
#: ``monotonic`` are absent on purpose: measuring how long the *harness*
#: took never feeds the simulation, and banning them would just breed
#: pragmas on every phase-timing line.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random module-level names that are *not* hazards: constructing
#: an explicitly-seeded generator is the sanctioned pattern (MSL006
#: checks the seeding discipline).
NP_RANDOM_SAFE = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Module-level filesystem listing calls with OS-dependent order.
FS_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Path-object methods with OS-dependent order.
FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Call sinks whose result is order-insensitive, so an unsorted listing
#: or set iteration feeding them directly is fine.
ORDER_SAFE_SINKS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)

#: rule id -> (severity, one-line summary) — the registry the CLI and
#: README table are generated from.
RULES = {
    "MSL000": ("warning", "pragma hygiene (missing justification, unused)"),
    "MSL001": ("error", "determinism hazard in a simulation path"),
    "MSL002": ("error", "op accounting registry incomplete or stale"),
    "MSL005": ("error", "bus metric missing from the sidecar registry"),
    "MSL006": ("error", "rng constructed instead of threaded"),
    "MSL007": ("error", "emulation imports mlg internals past the transport boundary"),
    "MSL008": ("error", "obs metric missing from the endpoint registry"),
}

#: MSL008: registry sources that are obs-plane sections rather than
#: sidecar metric streams.  ``tap``/``trace`` summarise the live server;
#: ``campaign`` entries are aggregated by the campaign parent.
OBS_ALLOWED_SECTIONS = frozenset({"tap", "trace", "campaign"})

#: MSL007: the only ``repro.mlg`` modules emulation code may touch — the
#: session boundary itself and the pure protocol vocabulary.  Everything
#: else (server, netqueue, world, variants, ...) is server-side internals
#: a wire-backed fleet cannot have.
EMULATION_ALLOWED_MLG = frozenset(
    {"repro.mlg.transport", "repro.mlg.protocol"}
)

#: Where the emulation (client) side of the transport boundary lives.
EMULATION_PATH_PREFIX = "src/repro/emulation/"


class Checker:
    """Base checker: subscribe to node types, visit, finalize."""

    rule = "MSL000"
    #: AST node types this checker wants to see.
    interests: tuple[type, ...] = ()

    @property
    def severity(self) -> str:
        return RULES[self.rule][0]

    def applies_to(self, rel_path: str) -> bool:
        return True

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        """Called once per matching node during the single file walk."""

    def finalize(self, ctx: "ProjectContext") -> None:
        """Called once after all files, for registry-level checks."""

    # -- helpers ------------------------------------------------------------

    def report(
        self,
        ctx: "FileContext",
        node: ast.AST,
        message: str,
    ) -> None:
        ctx.add(
            Finding(
                rule=self.rule,
                severity=self.severity,
                path=ctx.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )

    def report_at(
        self, ctx: "ProjectContext", path: str, line: int, message: str
    ) -> None:
        ctx.add(
            Finding(
                rule=self.rule,
                severity=self.severity,
                path=path,
                line=line,
                col=1,
                message=message,
            )
        )


def _is_set_expression(node: ast.expr) -> bool:
    """Does ``node`` evaluate to a set (statically obvious cases)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


class DeterminismHazardChecker(Checker):
    """MSL001: wall-clock, ambient RNG, unsorted listings, set order."""

    rule = "MSL001"
    interests = (
        ast.Call,
        ast.For,
        ast.ListComp,
        ast.GeneratorExp,
        ast.DictComp,
    )

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith(SIM_PATH_PREFIXES)

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node, ctx)
        elif isinstance(node, ast.For):
            if _is_set_expression(node.iter):
                self.report(
                    ctx,
                    node,
                    "iteration over a set expression — element order "
                    "escapes into the loop body; iterate sorted(...) "
                    "instead",
                )
        else:  # list/generator/dict comprehension
            self._visit_comprehension(node, ctx)

    def _visit_call(self, node: ast.Call, ctx: "FileContext") -> None:
        dotted = ctx.dotted_name(node.func)
        if dotted in WALL_CLOCK_CALLS:
            self.report(
                ctx,
                node,
                f"wall-clock read {dotted}() in a simulation path — "
                "simulated time must come from SimClock (or be pragma'd "
                "as deliberate provenance metadata)",
            )
            return
        if dotted is not None and dotted.startswith("random."):
            self.report(
                ctx,
                node,
                f"module-level stdlib RNG {dotted}() — draws from ambient "
                "process state; thread a seeded numpy Generator instead",
            )
            return
        if (
            dotted is not None
            and dotted.startswith("numpy.random.")
            and dotted.rsplit(".", 1)[1] not in NP_RANDOM_SAFE
        ):
            self.report(
                ctx,
                node,
                f"module-level numpy RNG {dotted}() — draws from the "
                "global generator; thread a seeded Generator instead",
            )
            return
        is_listing = dotted in FS_LISTING_CALLS or (
            dotted is None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in FS_LISTING_METHODS
        )
        if is_listing and not ctx.order_is_safe(node):
            name = dotted or f".{node.func.attr}"  # type: ignore[union-attr]
            self.report(
                ctx,
                node,
                f"directory listing {name}() in OS order — wrap in "
                "sorted(...) (or feed an order-insensitive sink) so runs "
                "are byte-identical across filesystems",
            )

    def _visit_comprehension(self, node: ast.AST, ctx: "FileContext") -> None:
        # Set-typed iterables feeding a list/generator/dict comprehension
        # leak their order into the result unless the comprehension
        # itself feeds an order-insensitive sink.
        for generator in node.generators:  # type: ignore[attr-defined]
            if _is_set_expression(generator.iter) and not ctx.order_is_safe(
                node
            ):
                self.report(
                    ctx,
                    generator.iter,
                    "comprehension over a set expression — element order "
                    "escapes into the result; sort first",
                )


class OpAccountingChecker(Checker):
    """MSL002: the Op registry, cost table, and bucket map agree."""

    rule = "MSL002"
    interests = (ast.Attribute, ast.Call)

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        ops = ctx.project.symbols.ops
        if not ops:
            return
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "Op"
                and node.attr != "ALL"
                and node.attr not in ops
            ):
                self.report(
                    ctx,
                    node,
                    f"Op.{node.attr} is not a registered Op constant "
                    "(see mlg/workreport.py)",
                )
            return
        # report.add("literal") sites: the string must be a registered
        # op *value*.  Only receivers named `report` are considered so
        # unrelated `.add(...)` calls (sets, argparse) stay out of scope.
        func = node.func  # type: ignore[union-attr]
        if not (isinstance(func, ast.Attribute) and func.attr == "add"):
            return
        receiver = func.value
        is_report = (
            isinstance(receiver, ast.Name) and receiver.id == "report"
        ) or (isinstance(receiver, ast.Attribute) and receiver.attr == "report")
        args = node.args  # type: ignore[union-attr]
        if not is_report or not args:
            return
        first = args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            if first.value not in ops.values():
                self.report(
                    ctx,
                    first,
                    f"report.add({first.value!r}) does not name a "
                    "registered Op value — count sites must stay "
                    "attributable to the cost table",
                )

    def finalize(self, ctx: "ProjectContext") -> None:
        symbols = ctx.symbols
        if not ctx.full_scan or not symbols.ops:
            return
        all_listed = set(symbols.op_all)
        for name in symbols.ops:
            ref = symbols.op_refs[name]
            if symbols.op_all and name not in all_listed:
                self.report_at(
                    ctx, ref.path, ref.line, f"Op.{name} missing from Op.ALL"
                )
            if symbols.ref_cost_table and name not in symbols.cost_ops:
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"Op.{name} has no cost in variants._BASE_COSTS — "
                    "uncosted work silently vanishes from tick time",
                )
            if symbols.ref_bucket_by_op and name not in symbols.bucket_by_op:
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"Op.{name} has no explicit _BUCKET_BY_OP entry — "
                    "map it (use 'Other' deliberately, not by fallback)",
                )
        for name in all_listed:
            if name not in symbols.ops and symbols.ref_op_all:
                ref = symbols.ref_op_all
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"Op.ALL lists unknown constant {name}",
                )
        for name, ref in symbols.cost_ops.items():
            if name not in symbols.ops:
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"stale cost-table entry Op.{name}: no such constant",
                )
        if symbols.ref_bucket_by_op:
            ref = symbols.ref_bucket_by_op
            for name, bucket in symbols.bucket_by_op.items():
                if name not in symbols.ops:
                    self.report_at(
                        ctx,
                        ref.path,
                        ref.line,
                        f"stale bucket entry Op.{name}: no such constant",
                    )
                if symbols.figure_buckets and (
                    bucket not in symbols.figure_buckets
                ):
                    self.report_at(
                        ctx,
                        ref.path,
                        ref.line,
                        f"Op.{name} maps to unknown bucket {bucket!r} "
                        "(not in FIGURE11_BUCKETS)",
                    )


class TelemetryRegistrationChecker(Checker):
    """MSL005: published bus metrics exist in the sidecar registry."""

    rule = "MSL005"
    interests = (ast.Call,)

    def __init__(self) -> None:
        self.published: dict[str, tuple[str, int]] = {}

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        func = node.func  # type: ignore[union-attr]
        if not (isinstance(func, ast.Attribute) and func.attr == "publish"):
            return
        args = node.args  # type: ignore[union-attr]
        if not args:
            return
        metric = ctx.resolve_str(args[0])
        if metric is None:
            return
        self.published.setdefault(
            metric, (ctx.rel_path, args[0].lineno)
        )
        registry = ctx.project.symbols.sidecar_metrics
        if ctx.project.symbols.ref_sidecar_metrics and metric not in registry:
            self.report(
                ctx,
                args[0],
                f"metric {metric!r} is published to the bus but missing "
                "from reporting SIDECAR_METRICS — reports cannot pivot "
                "on it",
            )

    def finalize(self, ctx: "ProjectContext") -> None:
        symbols = ctx.symbols
        if not ctx.full_scan or symbols.ref_sidecar_metrics is None:
            return
        ref = symbols.ref_sidecar_metrics
        for metric, fields in sorted(symbols.sidecar_metrics.items()):
            if metric not in self.published:
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"SIDECAR_METRICS entry {metric!r} is never published "
                    "to a telemetry bus — stale registry entry",
                )
            for field_name in fields:
                if (
                    symbols.metric_fields
                    and field_name not in symbols.metric_fields
                ):
                    self.report_at(
                        ctx,
                        ref.path,
                        ref.line,
                        f"SIDECAR_METRICS[{metric!r}] names {field_name!r}, "
                        "which is not a METRIC_FIELDS report metric",
                    )


class RngDisciplineChecker(Checker):
    """MSL006: RNGs are threaded, never ambiently constructed."""

    rule = "MSL006"
    interests = (ast.Call,)

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        func = node.func  # type: ignore[union-attr]
        dotted = ctx.dotted_name(func)
        is_default_rng = (dotted or "").endswith("default_rng") or (
            isinstance(func, ast.Name) and func.id == "default_rng"
        )
        args = node.args  # type: ignore[union-attr]
        if dotted == "numpy.random.seed":
            self.report(
                ctx,
                node,
                "numpy.random.seed() reseeds the *global* generator — "
                "construct and thread a local default_rng(seed) instead",
            )
            return
        if dotted == "random.Random" and not args:
            self.report(
                ctx,
                node,
                "random.Random() without a seed draws from ambient "
                "process state — pass an explicit seed",
            )
            return
        if not is_default_rng:
            return
        if not args:
            self.report(
                ctx,
                node,
                "default_rng() without a seed is nondeterministic — "
                "every generator must derive from an explicit seed",
            )
            return
        enclosing = ctx.enclosing_function(node)
        if enclosing is None:
            return
        params = ctx.function_params(enclosing)
        if "rng" not in params and "seed" not in params:
            return
        referenced = {
            leaf.id
            for arg in args
            for leaf in ast.walk(arg)
            if isinstance(leaf, ast.Name)
        }
        if not (referenced & params):
            self.report(
                ctx,
                node,
                f"{enclosing.name}() takes rng/seed but constructs "
                "default_rng(...) from values unrelated to its "
                "parameters — thread the caller's RNG or seed through",
            )


class TransportLayeringChecker(Checker):
    """MSL007: emulation sees only the session boundary, never the server.

    The parity guarantee between in-process and wire-backed fleets holds
    because bots can only do what :class:`~repro.mlg.transport
    .ServerSession` offers.  A single ``server.world`` reach-in would
    compile fine in-process and be impossible over a socket, so the
    boundary is enforced at import level: ``repro.mlg.transport`` and
    ``repro.mlg.protocol`` are the whole allowed surface.
    """

    rule = "MSL007"
    interests = (ast.Import, ast.ImportFrom)

    def applies_to(self, rel_path: str) -> bool:
        return rel_path.startswith(EMULATION_PATH_PREFIX)

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self._check(ctx, node, alias.name)
            return
        module = node.module or ""  # type: ignore[union-attr]
        if node.level:  # type: ignore[union-attr]
            return  # relative import: stays inside repro.emulation
        if module == "repro.mlg":
            # `from repro.mlg import X` imports submodule or name X.
            for alias in node.names:  # type: ignore[union-attr]
                self._check(ctx, node, f"{module}.{alias.name}")
            return
        self._check(ctx, node, module)

    def _check(self, ctx: "FileContext", node: ast.AST, module: str) -> None:
        if not (module == "repro.mlg" or module.startswith("repro.mlg.")):
            return
        if module in EMULATION_ALLOWED_MLG:
            return
        self.report(
            ctx,
            node,
            f"emulation imports {module!r} — bots may touch only the "
            "session boundary (repro.mlg.transport / repro.mlg.protocol); "
            "anything else cannot exist on the wire-client side",
        )


class ObsRegistrationChecker(Checker):
    """MSL008: obs-endpoint exports match the ``OBS_METRICS`` registry."""

    rule = "MSL008"
    interests = (ast.Call,)

    def __init__(self) -> None:
        self.exported: dict[str, tuple[str, int]] = {}

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        func = node.func  # type: ignore[union-attr]
        if not (isinstance(func, ast.Attribute) and func.attr == "export"):
            return
        args = node.args  # type: ignore[union-attr]
        if not args:
            return
        metric = ctx.resolve_str(args[0])
        if metric is None:
            return
        self.exported.setdefault(metric, (ctx.rel_path, args[0].lineno))
        registry = ctx.project.symbols.obs_metrics
        if ctx.project.symbols.ref_obs_metrics and metric not in registry:
            self.report(
                ctx,
                args[0],
                f"metric {metric!r} is exported to the obs endpoint but "
                "missing from OBS_METRICS — scrapers cannot rely on it",
            )

    def finalize(self, ctx: "ProjectContext") -> None:
        symbols = ctx.symbols
        if not ctx.full_scan or symbols.ref_obs_metrics is None:
            return
        sidecar = symbols.sidecar_metrics
        for metric, source in sorted(symbols.obs_metrics.items()):
            ref = symbols.obs_metric_refs.get(metric, symbols.ref_obs_metrics)
            if metric not in self.exported:
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"OBS_METRICS entry {metric!r} is never exported to the "
                    "obs endpoint — stale registry entry",
                )
            if (
                sidecar
                and source not in sidecar
                and source not in OBS_ALLOWED_SECTIONS
            ):
                self.report_at(
                    ctx,
                    ref.path,
                    ref.line,
                    f"OBS_METRICS[{metric!r}] names source {source!r}, which "
                    "is neither a SIDECAR_METRICS stream nor an obs section",
                )


#: Checker classes in rule order; the engine instantiates fresh ones
#: per run (MSL005/MSL008 carry cross-file state).
ALL_CHECKERS = (
    DeterminismHazardChecker,
    OpAccountingChecker,
    TelemetryRegistrationChecker,
    RngDisciplineChecker,
    TransportLayeringChecker,
    ObsRegistrationChecker,
)
