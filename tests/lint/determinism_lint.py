"""The determinism lint: three AST rules the bit-identity claims rest on.

Serial == parallel campaigns, batched engines == their scalar oracles and
byte-stable report renders all assume that nothing in the simulation
reads the wall clock or an ambient RNG, that RNGs are threaded rather
than constructed, and that bots touch only the session boundary.  A
parity test only catches a violation it happens to exercise; these rules
catch the whole class, and ``test_determinism_gate.py`` fails tier-1 on
any finding under ``src/``.  Nothing suppresses a finding.

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

Retired ids, never reused: MSL000 (pragma hygiene), MSL002 (op
accounting), MSL003 (knob threading), MSL004 (provenance hygiene),
MSL005 (telemetry registration) and MSL008 (obs registration).  An op,
a metric and a knob are each declared once now, and
``tests/mlg/test_op_registry.py`` and ``tests/telemetry/test_catalog.py``
run the engines, the bus and the endpoint against the declaration.
"""

import ast
from pathlib import Path

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

#: MSL007: the only ``repro.mlg`` modules emulation code may touch — the
#: session boundary itself and the pure protocol vocabulary.  Everything
#: else (server, netqueue, world, variants, ...) is server-side internals
#: a wire-backed fleet cannot have.
EMULATION_ALLOWED_MLG = frozenset(
    {"repro.mlg.transport", "repro.mlg.protocol"}
)

#: Where the emulation (client) side of the transport boundary lives.
EMULATION_PATH_PREFIX = "src/repro/emulation/"


def lint(root):
    """Every finding in ``root/src`` as a sorted list of ``(path, line,
    col, rule, message)``, paths relative to ``root`` (the rules are
    scoped by them).  A ``root`` without ``src/`` raises
    ``FileNotFoundError``: a gate pointed at the wrong tree must not
    pass for having read nothing."""
    root = Path(root)
    if not (root / "src").is_dir():
        raise FileNotFoundError(f"no src/ directory under {root}")
    findings = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=rel)))
        parents = {
            child: node
            for node in nodes
            for child in ast.iter_child_nodes(node)
        }
        imports = _imports(nodes)
        rules = [("MSL006", rng_discipline)]
        if rel.startswith(SIM_PATH_PREFIXES):
            rules.append(("MSL001", determinism_hazards))
        if rel.startswith(EMULATION_PATH_PREFIX):
            rules.append(("MSL007", transport_layering))
        for rule, check in rules:
            findings.extend(
                (rel, node.lineno, node.col_offset + 1, rule, message)
                for node, message in check(nodes, imports, parents)
            )
    return sorted(findings)


def render(findings):
    """One ``path:line:col: RULE message`` line per finding, then the
    count."""
    lines = [
        f"{path}:{line}:{col}: {rule} {message}\n"
        for path, line, col, rule, message in findings
    ]
    return "".join(lines) + f"{len(findings)} finding(s)\n"


def _imports(nodes):
    """Local alias -> the fully dotted module or name it binds."""
    imports = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # `import os.path` binds `os`.
                    head = alias.name.split(".", 1)[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.level:
                continue  # relative imports stay unresolved
            for alias in node.names:
                bound = alias.asname or alias.name
                imports[bound] = f"{node.module}.{alias.name}"
    return imports


def _dotted_name(node, imports):
    """``np.random.random`` -> ``"numpy.random.random"``, resolved through
    the file's import aliases; None when the chain is rooted at a local
    object rather than an imported module or name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in imports:
        return None
    parts.append(imports[node.id])
    return ".".join(reversed(parts))


def _order_is_safe(node, parents):
    """Does ``node``'s (unordered) result feed an order-insensitive sink —
    ``sorted``/``set``/reducers, a set comprehension, or a membership
    test?  Climbs through generator/list comprehensions so
    ``sorted(x for x in d.glob(...))`` counts as safe."""
    current = node
    for _ in range(6):
        parent = parents.get(current)
        if parent is None:
            return False
        if isinstance(parent, ast.Call):
            func = parent.func
            return (
                isinstance(func, ast.Name)
                and func.id in ORDER_SAFE_SINKS
                and current in parent.args
            )
        if isinstance(parent, ast.SetComp):
            return True
        if isinstance(parent, ast.Compare):
            return any(
                current is comparator and isinstance(op, (ast.In, ast.NotIn))
                for op, comparator in zip(parent.ops, parent.comparators)
            )
        if not isinstance(
            parent, (ast.comprehension, ast.GeneratorExp, ast.ListComp)
        ):
            return False
        current = parent
    return False


def _is_set_expression(node):
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


def determinism_hazards(nodes, imports, parents):
    """MSL001: wall-clock, ambient RNG, unsorted listings, set order."""
    for node in nodes:
        if isinstance(node, ast.Call):
            message = _call_hazard(node, imports, parents)
            if message is not None:
                yield node, message
        elif isinstance(node, ast.For):
            if _is_set_expression(node.iter):
                yield node, (
                    "iteration over a set expression — element order "
                    "escapes into the loop body; iterate sorted(...) "
                    "instead"
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            # A set-typed iterable leaks its order into the result unless
            # the comprehension itself feeds an order-insensitive sink.
            for generator in node.generators:
                if _is_set_expression(generator.iter) and not _order_is_safe(
                    node, parents
                ):
                    yield generator.iter, (
                        "comprehension over a set expression — element "
                        "order escapes into the result; sort first"
                    )


def _call_hazard(node, imports, parents):
    dotted = _dotted_name(node.func, imports)
    if dotted in WALL_CLOCK_CALLS:
        return (
            f"wall-clock read {dotted}() in a simulation path — "
            "simulated time must come from SimClock (provenance "
            "metadata reads it outside the simulation paths)"
        )
    if (
        dotted is not None
        and dotted.startswith("random.")
        and dotted != STDLIB_RANDOM_SAFE
    ):
        return (
            f"module-level stdlib RNG {dotted}() — draws from ambient "
            "process state; thread a seeded numpy Generator instead"
        )
    if (
        dotted is not None
        and dotted.startswith("numpy.random.")
        and dotted.rsplit(".", 1)[1] not in NP_RANDOM_SAFE
    ):
        return (
            f"module-level numpy RNG {dotted}() — draws from the "
            "global generator; thread a seeded Generator instead"
        )
    is_listing = dotted in FS_LISTING_CALLS or (
        dotted is None
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FS_LISTING_METHODS
    )
    if is_listing and not _order_is_safe(node, parents):
        return (
            f"directory listing {dotted or '.' + node.func.attr}() in OS "
            "order — wrap in sorted(...) (or feed an order-insensitive "
            "sink) so runs are byte-identical across filesystems"
        )
    return None


def rng_discipline(nodes, imports, parents):
    """MSL006: RNGs are threaded, never ambiently constructed."""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func, imports)
        if dotted == "numpy.random.seed":
            yield node, (
                "numpy.random.seed() reseeds the *global* generator — "
                "construct and thread a local default_rng(seed) instead"
            )
            continue
        if dotted == "random.Random" and not node.args:
            yield node, (
                "random.Random() without a seed draws from ambient "
                "process state — pass an explicit seed"
            )
            continue
        is_default_rng = (dotted or "").endswith("default_rng") or (
            isinstance(node.func, ast.Name) and node.func.id == "default_rng"
        )
        if not is_default_rng:
            continue
        if not node.args:
            yield node, (
                "default_rng() without a seed is nondeterministic — "
                "every generator must derive from an explicit seed"
            )
            continue
        enclosing = parents.get(node)
        while enclosing is not None and not isinstance(
            enclosing, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            enclosing = parents.get(enclosing)
        if enclosing is None:
            continue
        params = {
            arg.arg
            for arg in (
                *enclosing.args.posonlyargs,
                *enclosing.args.args,
                *enclosing.args.kwonlyargs,
                *filter(None, (enclosing.args.vararg, enclosing.args.kwarg)),
            )
        }
        if "rng" not in params and "seed" not in params:
            continue
        referenced = {
            leaf.id
            for arg in node.args
            for leaf in ast.walk(arg)
            if isinstance(leaf, ast.Name)
        }
        if not referenced & params:
            yield node, (
                f"{enclosing.name}() takes rng/seed but constructs "
                "default_rng(...) from values unrelated to its "
                "parameters — thread the caller's RNG or seed through"
            )


def transport_layering(nodes, imports, parents):
    """MSL007: emulation sees only the session boundary, never the server.

    In-process and wire-backed fleets agree because bots can only do
    what ``repro.mlg.transport.ServerSession`` offers.  A single
    ``server.world`` reach-in would compile fine in-process and be
    impossible over a socket, so the boundary is held at import level.
    """
    for node in nodes:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            # `from repro.mlg import X` imports submodule or name X.
            modules = (
                [f"{module}.{alias.name}" for alias in node.names]
                if module == "repro.mlg"
                else [module]
            )
        else:
            continue  # a relative import stays inside repro.emulation
        for module in modules:
            if (
                module == "repro.mlg" or module.startswith("repro.mlg.")
            ) and module not in EMULATION_ALLOWED_MLG:
                yield node, (
                    f"emulation imports {module!r} — bots may touch only "
                    "the session boundary (repro.mlg.transport / "
                    "repro.mlg.protocol); anything else cannot exist on "
                    "the wire-client side"
                )
