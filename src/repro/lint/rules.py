"""The project-specific checkers (MSL001, MSL006, MSL007).

Retired ids, never reused: MSL003 (knob threading) and MSL004
(provenance hygiene) went when a knob became one dataclass field; MSL002
(op accounting), MSL005 (telemetry registration) and MSL008 (obs
registration) went when an op became one row of
``mlg/workreport.OP_TABLE`` and a metric one entry of
``telemetry/catalog.CATALOG``; MSL000 (pragma hygiene) went with the
inline pragmas and the baseline, once ``src/`` needed no suppression (a
file that does not parse is a usage error, not a finding).  With one
declaration there are no copies to compare statically; what is left to
check — that the engines, the bus and the endpoint use what is declared
— is checked by running them (``tests/mlg/test_op_registry.py``,
``tests/telemetry/test_catalog.py``).

The rules that remain are about *code*, not lists, and every one is an
error: nothing suppresses a finding.  Each checker subscribes to the AST
node types it cares about; the engine walks each tree exactly once and
dispatches.

Rule inventory (the README carries the user-facing table):

=======  ==============================================================
MSL001   determinism hazards in simulation/executor paths: wall-clock
         reads, module-level RNG APIs, unsorted directory listings and
         walks, iteration over set expressions whose order escapes
MSL006   rng discipline: functions taking ``rng``/``seed`` must not
         construct their own generator; ``default_rng()`` and
         ``random.Random()`` must be seeded
MSL007   transport layering: emulation code may import only the session
         boundary (``repro.mlg.transport``/``protocol``), never server
         internals
=======  ==============================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import FileContext

__all__ = ["ALL_CHECKERS", "Checker", "RULES"]

#: Directories (project-root-relative, posix) that constitute the
#: deterministic simulation/executor/reporting surface MSL001 polices.
#: ``tracing`` and ``core`` are deliberately out: provenance manifests
#: legitimately read the wall clock, and that is where such a read goes.
SIM_PATH_PREFIXES = (
    "src/repro/mlg/",
    "src/repro/workloads/",
    "src/repro/persistence/",
    "src/repro/campaign/",
    "src/repro/reporting/",
)

#: Wall-clock reads (fully-resolved dotted names).  ``perf_counter`` /
#: ``monotonic`` are absent on purpose: measuring how long the *harness*
#: took never feeds the simulation, and every phase-timing line would
#: otherwise be a finding.
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

#: The stdlib RNG's constructor, the one ``random`` name that draws
#: nothing from ambient state once seeded (MSL006 refuses it unseeded).
STDLIB_RANDOM_SAFE = "random.Random"

#: Module-level filesystem listing calls with OS-dependent order.
FS_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)

#: Path-object methods with OS-dependent order.
FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Call sinks whose result is order-insensitive, so an unsorted listing
#: or set iteration feeding them directly is fine.
ORDER_SAFE_SINKS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "min", "max", "any", "all"}
)

#: rule id -> one-line summary, for the CLI's help text.
RULES = {
    "MSL001": "determinism hazard in a simulation path",
    "MSL006": "rng constructed instead of threaded",
    "MSL007": "emulation imports mlg internals past the transport boundary",
}

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
    """Base checker: subscribe to node types, visit."""

    rule: str
    #: AST node types this checker wants to see.
    interests: tuple[type, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        return True

    def visit(self, node: ast.AST, ctx: "FileContext") -> None:
        """Called once per matching node during the single file walk."""

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
                path=ctx.rel_path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
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
                "simulated time must come from SimClock (provenance "
                "metadata reads it outside the simulation paths)",
            )
            return
        if (
            dotted is not None
            and dotted.startswith("random.")
            and dotted != STDLIB_RANDOM_SAFE
        ):
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


#: Checker classes in rule order; the engine instantiates fresh ones
#: per run.
ALL_CHECKERS = (
    DeterminismHazardChecker,
    RngDisciplineChecker,
    TransportLayeringChecker,
)
