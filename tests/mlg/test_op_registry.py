"""The op table, checked by importing and walking rather than by lint.

An op is one ``Op`` attribute plus one row of ``workreport.OP_TABLE``
(string, vanilla base cost, Fig. 11 bucket); lint rule MSL002 used to
keep four hand-written lists in step.  What is left to check is that the
two halves of a declaration agree and that the engines under ``src/``
use only what is declared — and that the table prices and buckets the
24 ops it started with exactly as the four lists did (``op_pins.json``,
captured at the commit before the table existed: every variant's cost as
``float.hex`` and ``bucket_of`` per op; an op added since is not pinned).
"""

import ast
import json
from pathlib import Path

from repro.mlg import variants
from repro.mlg.workreport import FIGURE11_BUCKETS, OP_TABLE, Op, bucket_of

SRC_ROOT = Path(variants.__file__).resolve().parents[1]

#: The files that declare and price ops — Op.X references there are
#: rows and multipliers, not engine call sites.
_REGISTRY_FILES = {"workreport.py", "variants.py"}

PINS = json.loads((Path(__file__).parent / "op_pins.json").read_text())


def op_constants() -> dict[str, str]:
    """name -> value for every string attribute of Op."""
    return {
        name: value
        for name, value in vars(Op).items()
        if not name.startswith("_") and isinstance(value, str)
    }


class TestOpTable:
    def test_every_attribute_is_a_row_and_vice_versa(self):
        rows = [op for op, _, _ in OP_TABLE]
        assert sorted(rows) == sorted(op_constants().values())
        assert len(set(rows)) == len(rows)

    def test_every_variant_prices_every_row(self):
        for name, profile in variants.VARIANTS.items():
            missing = [
                op for op, _, _ in OP_TABLE if op not in profile.cost_table
            ]
            assert missing == [], f"variant {name!r} misses: {missing}"

    def test_every_bucket_is_a_figure_11_bucket(self):
        unknown = {
            op: bucket
            for op, _, bucket in OP_TABLE
            if bucket not in FIGURE11_BUCKETS
        }
        assert unknown == {}

    def test_engines_use_only_declared_ops_and_use_them_all(self):
        """Walk every engine file once: each ``Op.<NAME>`` must exist,
        each ``report.add("<literal>")`` must name a row's string (count
        sites stay attributable to the cost table), and each op must be
        referenced somewhere — a priced-and-bucketed op nothing records
        is dead weight in the cost model."""
        constants = op_constants()
        declared = {op for op, _, _ in OP_TABLE}
        referenced: set[str] = set()
        undeclared: list[str] = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.name in _REGISTRY_FILES or "__pycache__" in path.parts:
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "Op"
                ):
                    referenced.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and "report"
                    in (
                        getattr(node.func.value, "id", None),
                        getattr(node.func.value, "attr", None),
                    )
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value not in declared
                ):
                    undeclared.append(
                        f"{path.name}:{node.lineno} {node.args[0].value!r}"
                    )
        assert sorted(referenced - set(constants)) == [], "no such Op"
        assert undeclared == [], "report.add of a string that is not a row"
        assert sorted(set(constants) - referenced) == [], "never recorded"


class TestParentPins:
    def test_cost_tables_are_bit_identical(self):
        for profile in (variants.VANILLA, variants.FORGE, variants.PAPERMC):
            pinned = PINS["cost_table"][profile.name]
            costs = {
                op: float(cost).hex()
                for op, cost in profile.cost_table.items()
                if op in pinned
            }
            assert costs == pinned
            assert list(costs) == list(pinned)

    def test_buckets(self):
        for op, bucket in PINS["bucket_of"].items():
            assert bucket_of(op) == bucket
