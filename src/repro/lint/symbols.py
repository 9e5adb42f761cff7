"""Cross-file symbol tables for the project-level lint rules.

The cross-file rules (MSL002 op accounting, MSL005 telemetry
registration, MSL008 obs registration) check *registries* against
*usage*: the ``Op`` constants against the cost table and bucket map, the
sidecar metric registry, and the obs endpoint registry.  This module
parses those registries out of their defining files — pure ``ast``,
nothing is imported or executed, so the linter works on any tree that
merely *looks* like the project (which is also how the corpus tests
exercise it).

Every extracted symbol carries the ``path:line`` it was defined at, so
project-level findings anchor to the registry entry at fault.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["UNRESOLVED", "ProjectSymbols", "SourceRef"]


class _Unresolved:
    """Sentinel: an expression the parser could not reduce to a literal.
    Never equal to anything, so lookups silently skip it."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unresolved>"


UNRESOLVED = _Unresolved()


@dataclass(frozen=True)
class SourceRef:
    """Where a symbol was defined."""

    path: str
    line: int


#: Relative paths (under the project root) of the registry files.
WORKREPORT_PATH = "src/repro/mlg/workreport.py"
VARIANTS_PATH = "src/repro/mlg/variants.py"
REPORTING_SPEC_PATH = "src/repro/reporting/spec.py"
OBS_REGISTRY_PATH = "src/repro/obs/registry.py"


def _literal(node: ast.expr, constants: dict[str, object]) -> object:
    """Reduce ``node`` to a literal, resolving module-level constant
    names; :data:`UNRESOLVED` when it isn't statically reducible."""
    if isinstance(node, ast.Name):
        return constants.get(node.id, UNRESOLVED)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal(node.operand, constants)
        if isinstance(inner, (int, float)):
            return -inner
        return UNRESOLVED
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return UNRESOLVED


def _module_constants(tree: ast.Module) -> dict[str, object]:
    """Module-level ``NAME = <literal>`` assignments."""
    constants: dict[str, object] = {}
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                resolved = _literal(value, constants)
                if resolved is not UNRESOLVED:
                    constants[target.id] = resolved
    return constants


def _op_attr_name(node: ast.expr) -> str | None:
    """``Op.FOO`` -> ``"FOO"`` (None for anything else)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "Op"
    ):
        return node.attr
    return None


def _find_class(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    return None


def _find_assign(tree: ast.Module, name: str) -> ast.Assign | None:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name
            and stmt.value is not None
        ):
            # Normalize to the Assign shape the callers expect.
            assign = ast.Assign(targets=[stmt.target], value=stmt.value)
            ast.copy_location(assign, stmt)
            return assign
    return None


def _str_sequence(node: ast.expr) -> list[str]:
    """String elements of a tuple/list/set/frozenset(...) display."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "tuple", "set", "list")
        and node.args
    ):
        node = node.args[0]
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return []
    return [
        element.value
        for element in node.elts
        if isinstance(element, ast.Constant) and isinstance(element.value, str)
    ]


@dataclass
class ProjectSymbols:
    """Everything the cross-file rules need, parsed once per run."""

    root: Path

    # -- Op accounting (workreport.py + variants.py) ----------------------
    #: Op constant name -> its string value.
    ops: dict[str, str] = field(default_factory=dict)
    #: Op constant name -> definition site.
    op_refs: dict[str, SourceRef] = field(default_factory=dict)
    #: Names listed in ``Op.ALL``.
    op_all: list[str] = field(default_factory=list)
    ref_op_all: SourceRef | None = None
    #: Op names with an explicit ``_BUCKET_BY_OP`` entry -> bucket label.
    bucket_by_op: dict[str, str] = field(default_factory=dict)
    ref_bucket_by_op: SourceRef | None = None
    #: The legal Figure 11 bucket labels.
    figure_buckets: list[str] = field(default_factory=list)
    #: Op names priced in the variants base cost table.
    cost_ops: dict[str, SourceRef] = field(default_factory=dict)
    ref_cost_table: SourceRef | None = None

    # -- telemetry registration (reporting/spec.py) -----------------------
    #: Bus metric name -> report fields derived from it.
    sidecar_metrics: dict[str, list[str]] = field(default_factory=dict)
    ref_sidecar_metrics: SourceRef | None = None
    metric_fields: dict[str, SourceRef] = field(default_factory=dict)

    # -- obs registration (obs/registry.py) --------------------------------
    #: Exported obs metric name -> its declared source stream/section.
    obs_metrics: dict[str, str] = field(default_factory=dict)
    #: Exported obs metric name -> registry entry location.
    obs_metric_refs: dict[str, SourceRef] = field(default_factory=dict)
    ref_obs_metrics: SourceRef | None = None

    @classmethod
    def load(cls, root: Path) -> "ProjectSymbols":
        symbols = cls(root=root)
        symbols._load_workreport()
        symbols._load_variants()
        symbols._load_reporting_spec()
        symbols._load_obs_registry()
        return symbols

    # -- parsing helpers ----------------------------------------------------

    def _parse(self, rel_path: str) -> ast.Module | None:
        path = self.root / rel_path
        if not path.is_file():
            return None
        try:
            return ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            # The per-file pass reports the syntax error; symbol-dependent
            # rules just see an absent registry.
            return None

    def _load_workreport(self) -> None:
        tree = self._parse(WORKREPORT_PATH)
        if tree is None:
            return
        op_class = _find_class(tree, "Op")
        if op_class is not None:
            for stmt in op_class.body:
                if isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Constant
                ):
                    value = stmt.value.value
                    if not isinstance(value, str):
                        continue
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.ops[target.id] = value
                            self.op_refs[target.id] = SourceRef(
                                WORKREPORT_PATH, stmt.lineno
                            )
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == "ALL"
                            and isinstance(stmt.value, ast.Tuple)
                        ):
                            self.ref_op_all = SourceRef(
                                WORKREPORT_PATH, stmt.lineno
                            )
                            self.op_all = [
                                element.id
                                for element in stmt.value.elts
                                if isinstance(element, ast.Name)
                            ]
        buckets = _find_assign(tree, "FIGURE11_BUCKETS")
        if buckets is not None:
            self.figure_buckets = _str_sequence(buckets.value)
        bucket_map = _find_assign(tree, "_BUCKET_BY_OP")
        if bucket_map is not None and isinstance(bucket_map.value, ast.Dict):
            self.ref_bucket_by_op = SourceRef(
                WORKREPORT_PATH, bucket_map.lineno
            )
            for key, value in zip(
                bucket_map.value.keys, bucket_map.value.values
            ):
                if key is None:
                    continue
                op_name = _op_attr_name(key)
                if op_name is not None and isinstance(value, ast.Constant):
                    self.bucket_by_op[op_name] = value.value

    def _load_variants(self) -> None:
        tree = self._parse(VARIANTS_PATH)
        if tree is None:
            return
        cost_table = _find_assign(tree, "_BASE_COSTS")
        if cost_table is None or not isinstance(cost_table.value, ast.Dict):
            return
        self.ref_cost_table = SourceRef(VARIANTS_PATH, cost_table.lineno)
        for key in cost_table.value.keys:
            if key is None:
                continue
            op_name = _op_attr_name(key)
            if op_name is not None:
                self.cost_ops[op_name] = SourceRef(VARIANTS_PATH, key.lineno)

    def _load_reporting_spec(self) -> None:
        tree = self._parse(REPORTING_SPEC_PATH)
        if tree is None:
            return
        metric_fields = _find_assign(tree, "METRIC_FIELDS")
        if metric_fields is not None and isinstance(
            metric_fields.value, ast.Dict
        ):
            for key in metric_fields.value.keys:
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    self.metric_fields[key.value] = SourceRef(
                        REPORTING_SPEC_PATH, key.lineno
                    )
        sidecar = _find_assign(tree, "SIDECAR_METRICS")
        if sidecar is not None and isinstance(sidecar.value, ast.Dict):
            self.ref_sidecar_metrics = SourceRef(
                REPORTING_SPEC_PATH, sidecar.lineno
            )
            for key, value in zip(sidecar.value.keys, sidecar.value.values):
                if isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    self.sidecar_metrics[key.value] = _str_sequence(value)

    def _load_obs_registry(self) -> None:
        """``OBS_METRICS`` entries: exported name -> declared source.

        Each value is a ``(prom type, source, label, help)`` tuple; only
        the source (what sidecar stream or section the value derives
        from) matters to the cross-checks, so malformed values simply
        record an empty source.
        """
        tree = self._parse(OBS_REGISTRY_PATH)
        if tree is None:
            return
        registry = _find_assign(tree, "OBS_METRICS")
        if registry is None or not isinstance(registry.value, ast.Dict):
            return
        self.ref_obs_metrics = SourceRef(OBS_REGISTRY_PATH, registry.lineno)
        for key, value in zip(registry.value.keys, registry.value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            source = ""
            if isinstance(value, ast.Tuple) and len(value.elts) >= 2:
                second = value.elts[1]
                if isinstance(second, ast.Constant) and isinstance(
                    second.value, str
                ):
                    source = second.value
            self.obs_metrics[key.value] = source
            self.obs_metric_refs[key.value] = SourceRef(
                OBS_REGISTRY_PATH, key.lineno
            )
