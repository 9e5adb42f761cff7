"""The lint engine: one AST walk per file, checkers subscribe by node type.

Flow: collect files → parse → per-file visit pass (every checker sees
the nodes it subscribed to, in one walk) → stable sort.  A file that
does not parse is an error, not a finding.  Every finding belongs to
the file it was found in; nothing is imported or executed and no file
is read for another's sake.  Output is byte-deterministic: no
timestamps, no absolute paths, no dict-order dependence.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePosixPath

from repro.lint.findings import Finding, sort_findings
from repro.lint.rules import ALL_CHECKERS, ORDER_SAFE_SINKS, Checker

__all__ = ["FileContext", "lint_paths"]


class FileContext:
    """Per-file state handed to checkers during the walk."""

    def __init__(self, rel_path: str, tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.tree = tree
        self.findings: list[Finding] = []
        #: local alias -> fully dotted module/name it binds.
        self.imports: dict[str, str] = {}
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._collect_imports()

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    # -- imports & name resolution -----------------------------------------

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.imports[alias.asname] = alias.name
                    else:
                        # `import os.path` binds `os`.
                        head = alias.name.split(".", 1)[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    continue  # relative imports stay unresolved
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{node.module}.{alias.name}"

    def dotted_name(self, node: ast.expr) -> str | None:
        """``np.random.random`` -> ``"numpy.random.random"``.

        Resolves the base name through this file's import aliases;
        returns None when the base is not an imported module/name (an
        attribute chain rooted at a local object).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        resolved = self.imports.get(current.id)
        if resolved is None:
            return None
        parts.append(resolved)
        return ".".join(reversed(parts))

    # -- structural helpers -------------------------------------------------

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    @staticmethod
    def function_params(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        args = func.args
        return {
            arg.arg
            for arg in (
                *args.posonlyargs,
                *args.args,
                *args.kwonlyargs,
                *((args.vararg,) if args.vararg else ()),
                *((args.kwarg,) if args.kwarg else ()),
            )
        }

    def order_is_safe(self, node: ast.AST) -> bool:
        """Does ``node``'s (unordered) result feed an order-insensitive
        sink — ``sorted``/``set``/reducers, a set comprehension, or a
        membership test?  Climbs through generator/list comprehensions
        so ``sorted(x for x in d.glob(...))`` counts as safe."""
        current = node
        for _ in range(6):
            parent = self.parents.get(current)
            if parent is None:
                return False
            if isinstance(parent, ast.Call):
                func = parent.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ORDER_SAFE_SINKS
                    and current in parent.args
                ):
                    return True
                return False
            if isinstance(parent, ast.SetComp):
                return True
            if isinstance(parent, ast.Compare):
                return any(
                    current is comparator and isinstance(op, (ast.In, ast.NotIn))
                    for op, comparator in zip(parent.ops, parent.comparators)
                )
            if isinstance(
                parent, (ast.comprehension, ast.GeneratorExp, ast.ListComp)
            ):
                current = parent
                continue
            return False
        return False


def _collect_files(root: Path, paths: list[Path]) -> list[Path]:
    files: set[Path] = set()
    for path in paths:
        path = path if path.is_absolute() else root / path
        if path.is_dir():
            files.update(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.is_file():
            files.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def _rel_path(root: Path, path: Path) -> str:
    try:
        relative = path.resolve().relative_to(root)
    except ValueError:
        relative = path
    return str(PurePosixPath(relative))


def lint_paths(
    paths: list[str | Path], root: str | Path | None = None
) -> list[Finding]:
    """Lint ``paths`` (files or directories) under ``root`` (default cwd).

    Paths are reported relative to ``root`` and the rules are scoped by
    them.  Raises :class:`FileNotFoundError` for a missing path and
    :class:`ValueError` naming ``path:line`` for a file that does not
    parse.
    """
    root_path = (Path(root) if root is not None else Path.cwd()).resolve()
    checkers: list[Checker] = [cls() for cls in ALL_CHECKERS]
    findings: list[Finding] = []
    for path in _collect_files(root_path, [Path(p) for p in paths]):
        rel = _rel_path(root_path, path)
        try:
            tree = ast.parse(path.read_text(), filename=rel)
        except SyntaxError as exc:
            raise ValueError(
                f"{rel}:{exc.lineno or 1}: syntax error: {exc.msg}"
            ) from None
        dispatch: dict[type, list[Checker]] = {}
        for checker in checkers:
            if checker.applies_to(rel):
                for node_type in checker.interests:
                    dispatch.setdefault(node_type, []).append(checker)
        ctx = FileContext(rel, tree)
        for node in ast.walk(tree):
            for checker in dispatch.get(type(node), ()):
                checker.visit(node, ctx)
        findings.extend(ctx.findings)
    return sort_findings(findings)
