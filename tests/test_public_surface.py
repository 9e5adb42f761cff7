"""``src/repro`` carries no surface that only tests call.

Every public function, method and property under ``src/repro`` must be
named somewhere in ``src/``, ``benchmarks/`` or ``examples/`` other than
its own definition, or say why not on its ``def`` line with a
``# test-only: <reason>`` comment.  Only code names it: a name, an
attribute, a keyword argument, an imported name, or a string that is an
identifier (``getattr(obj, "name")``); a docstring, a comment or a
module's own ``__all__`` does not.  A test that drives the system
through an entry point the system never uses pins a shadow of it.  A
method that overrides one of a base class is exempt: the base calls it.
No simulation runs here; the check reads the source.
"""

import ast
import re
from collections import Counter
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
#: Where a caller counts.
CALLER_DIRS = ("src", "benchmarks", "examples")
#: Bases from outside the package that call no subclass method by name
#: (any other, e.g. ``BaseHTTPRequestHandler``, dispatches its hooks).
PLAIN_BASES = {"NamedTuple", "Protocol", "object"}
_TEST_ONLY = re.compile(r"#\s*test-only:\s*\S")


@cache
def _parse(path):
    """``(lines, tree)`` of one source file, parsed once per session."""
    text = path.read_text()
    return text.splitlines(), ast.parse(text)


def _functions(body):
    return [
        node for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _definitions(paths):
    """``(path, lines, class or None, defs)`` per public name, ``defs``
    being every ``def`` of it in one scope (a property and its setter),
    and the package's classes by name."""
    scopes, classes = [], {}
    for path in paths:
        lines, tree = _parse(path)

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

        visit(tree.body)
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


def _identifiers(node) -> list[str]:
    """The identifiers one AST node names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.keyword):
        return [node.arg] if node.arg else []
    if isinstance(node, ast.alias):
        return [*node.name.split("."), *filter(None, [node.asname])]
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return [node.value]
    return []


def _exported(tree) -> set[int]:
    """``id`` of each string listed in an ``__all__`` assignment: an
    export list names what a module offers, not a use of it."""
    strings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is not None and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            strings.update(map(id, ast.walk(node.value)))
    return strings


def _identifier_counts(paths):
    """Occurrences of each identifier, also per ``(path, line)``."""
    counts = Counter()
    for path in paths:
        tree = _parse(path)[1]
        exported = _exported(tree)
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            for word in _identifiers(node):
                counts[word] += 1
                counts[word, path, node.lineno] += 1
    return counts


def _own_lines(defs) -> set[int]:
    """The ``def`` and decorator lines of one name's definitions."""
    return {
        node.lineno for d in defs for node in (d, *d.decorator_list)
    }


def _unreferenced(package, callers):
    """``(path, line, [Class.]name)`` of each public name defined in
    ``package`` that nothing in ``callers`` names and no marker excuses."""
    scopes, classes = _definitions(package)
    counts = _identifier_counts(callers)
    for path, lines, cls, defs in scopes:
        name = defs[0].name
        if cls is not None and _inherits(cls, name, classes):
            continue
        if any(_TEST_ONLY.search(lines[d.lineno - 1]) for d in defs):
            continue
        own = sum(counts[name, path, n] for n in _own_lines(defs))
        if counts[name] <= own:
            qualified = f"{cls.name}.{name}" if cls else name
            yield path, defs[0].lineno, qualified


def test_every_public_name_has_a_caller_or_says_why_not():
    callers = [
        path
        for top in CALLER_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    ]
    flagged = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, line, name in _unreferenced(
            sorted(PACKAGE.rglob("*.py")), callers
        )
    ]
    assert not flagged, (
        "public names that nothing in src/, benchmarks/ or examples/ "
        "references; delete them, or mark the def line "
        "`# test-only: <reason>`:\n" + "\n".join(flagged)
    )


def test_the_scan_sees_overrides_and_markers(tmp_path):
    """The exemptions are narrow: a hook of a foreign base is exempt, a
    method of a package base is exempt only where that base defines it,
    a marker needs a reason, and a docstring or comment naming a method
    does not call it."""
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
    module = tmp_path / "spec.py"
    module.write_text(
        "class Spec:\n"
        "    def save(self):\n"
        "        \"\"\"Write it; ``Spec.save`` is the only writer.\"\"\"\n"
        "    def load(self): ...\n"
        "    def dump(self): ...\n"
        "def _use(spec):\n"
        "    # spec.save() would write it\n"
        "    getattr(spec, 'dump')()\n"
        "    return spec.load()\n"
    )
    flagged = [name for *_, name in _unreferenced([module], [module])]
    assert flagged == ["Spec.save"]


#: One caller line per kind of identifier the scan counts, and lines
#: that name ``save`` without calling it.
NAMES_IT = {
    "name": "handler = save\n",
    "attribute": "spec.save()\n",
    "keyword": "configure(save=True)\n",
    "import": "from spec import save\n",
    "import_alias": "import spec.save as writer\n",
    "getattr_string": "getattr(spec, 'save')()\n",
}
DOES_NOT_NAME_IT = {
    "docstring": "def f():\n    \"\"\"Call ``save`` to write it.\"\"\"\n",
    "comment": "# save() writes the spec\n",
    "sentence_string": "message = 'save failed'\n",
    "dunder_all": "__all__ = ['save']\n",
    "dunder_all_extended": "__all__ += ('save',)\n",
    "dunder_all_annotated": "__all__: list[str] = ['save']\n",
}


def _flags_save(tmp_path, caller_source):
    module = tmp_path / "spec.py"
    module.write_text("def save():\n    return 1\n")
    caller = tmp_path / "caller.py"
    caller.write_text(caller_source)
    return [
        name for *_, name in _unreferenced([module], [module, caller])
    ] == ["save"]


@pytest.mark.parametrize("source", NAMES_IT.values(), ids=NAMES_IT)
def test_an_identifier_counts_as_a_caller(tmp_path, source):
    assert not _flags_save(tmp_path, source)


@pytest.mark.parametrize(
    "source", DOES_NOT_NAME_IT.values(), ids=DOES_NOT_NAME_IT
)
def test_prose_does_not_count_as_a_caller(tmp_path, source):
    assert _flags_save(tmp_path, source)
