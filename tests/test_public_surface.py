"""``src/repro`` carries no surface that only tests call.

Every public function, method and property under ``src/repro`` must be
named somewhere in ``src/``, ``benchmarks/`` or ``examples/`` other than
its own definition, or say why not on its ``def`` line with a
``# test-only: <reason>`` comment.  A test that drives the system through
an entry point the system never uses pins a shadow of it.  A method that
overrides one of a base class is exempt: the base calls it.  No
simulation runs here; the check reads the source.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Where a caller counts.
CALLER_DIRS = ("src", "benchmarks", "examples")
#: Bases from outside the package that call no subclass method by name
#: (any other, e.g. ``BaseHTTPRequestHandler``, dispatches its hooks).
PLAIN_BASES = {"NamedTuple", "Protocol", "object"}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TEST_ONLY = re.compile(r"#\s*test-only:\s*\S")


def _functions(body):
    return [
        node for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _definitions():
    """``(path, lines, class or None, defs)`` per public name, ``defs``
    being every ``def`` of it in one scope (a property and its setter),
    and the package's classes by name."""
    scopes, classes = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()

        def visit(body, cls=None):
            by_name = {}
            for node in _functions(body):
                if not node.name.startswith("_"):
                    by_name.setdefault(node.name, []).append(node)
            scopes.extend((path, lines, cls, d) for d in by_name.values())
            for node in body:
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, []).append(node)
                    visit(node.body, node)

        visit(ast.parse(text).body)
    return scopes, classes


def _inherits(cls: ast.ClassDef, name: str, classes, seen=()) -> bool:
    """Whether a base of ``cls`` defines (or may call) method ``name``."""
    for base in map(ast.unparse, cls.bases):
        if base in seen:
            continue
        if base not in classes:
            if base not in PLAIN_BASES:
                return True
            continue
        for parent in classes[base]:
            if any(f.name == name for f in _functions(parent.body)):
                return True
            if _inherits(parent, name, classes, (*seen, base)):
                return True
    return False


def _word_counts():
    """Occurrences of each identifier-like word, per ``(path, line)``."""
    counts = Counter()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for word in _WORD.findall(line):
                    counts[word] += 1
                    counts[word, path, number] += 1
    return counts


def _own_lines(defs) -> set[int]:
    """The ``def`` and decorator lines of one name's definitions."""
    return {
        node.lineno for d in defs for node in (d, *d.decorator_list)
    }


def test_every_public_name_has_a_caller_or_says_why_not():
    scopes, classes = _definitions()
    counts = _word_counts()
    flagged = []
    for path, lines, cls, defs in scopes:
        name = defs[0].name
        if cls is not None and _inherits(cls, name, classes):
            continue
        if any(_TEST_ONLY.search(lines[d.lineno - 1]) for d in defs):
            continue
        own = sum(counts[name, path, n] for n in _own_lines(defs))
        if counts[name] > own:
            continue
        where = f"{path.relative_to(ROOT)}:{defs[0].lineno}"
        flagged.append(f"{where} {cls.name + '.' if cls else ''}{name}")
    assert not flagged, (
        "public names that nothing in src/, benchmarks/ or examples/ "
        "references; delete them, or mark the def line "
        "`# test-only: <reason>`:\n" + "\n".join(flagged)
    )


def test_the_scan_sees_overrides_and_markers():
    """The exemptions are narrow: a hook of a foreign base is exempt, a
    method of a package base is exempt only where that base defines it,
    and a marker needs a reason."""
    tree = ast.parse(
        "class Base:\n"
        "    def hook(self): ...\n"
        "class Child(Base):\n"
        "    def hook(self): ...\n"
        "    def extra(self): ...\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def do_GET(self): ...\n"
        "class Row(NamedTuple):\n"
        "    def total(self): ...\n"
    )
    classes = {node.name: [node] for node in tree.body}
    assert _inherits(classes["Child"][0], "hook", classes)
    assert not _inherits(classes["Child"][0], "extra", classes)
    assert _inherits(classes["Handler"][0], "do_GET", classes)
    assert not _inherits(classes["Row"][0], "total", classes)
    assert _TEST_ONLY.search("    def f(self):  # test-only: pins X")
    assert not _TEST_ONLY.search("    def f(self):  # test-only:")
