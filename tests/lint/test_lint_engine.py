"""Engine-level behavior: pragma hygiene, ordering, determinism, and
the JSON round-trip."""

import json
from pathlib import Path

from repro.lint import (
    findings_from_json,
    lint_paths,
    render_json,
    render_text,
)
from repro.lint.findings import JSON_SCHEMA, Finding, sort_findings

CORPUS = Path(__file__).parent / "corpus"


def write_sim_file(root: Path, body: str) -> Path:
    path = root / "src" / "repro" / "mlg" / "snippet.py"
    path.parent.mkdir(parents=True)
    path.write_text(body)
    return path


class TestPragmas:
    def test_pragma_suppresses_matching_rule(self, tmp_path):
        write_sim_file(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    return time.time()"
            "  # lint: allow[MSL001] operator log stamp only\n",
        )
        assert lint_paths(["src"], root=tmp_path) == []

    def test_pragma_without_justification_warns(self, tmp_path):
        write_sim_file(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    return time.time()  # lint: allow[MSL001]\n",
        )
        findings = lint_paths(["src"], root=tmp_path)
        assert [f.rule for f in findings] == ["MSL000"]
        assert findings[0].severity == "warning"
        assert "without a justification" in findings[0].message

    def test_unused_pragma_warns(self, tmp_path):
        write_sim_file(
            tmp_path,
            "def f():\n"
            "    return 1  # lint: allow[MSL001] nothing actually wrong\n",
        )
        findings = lint_paths(["src"], root=tmp_path)
        assert [f.rule for f in findings] == ["MSL000"]
        assert "unused pragma: MSL001 never fired" in findings[0].message

    def test_pragma_does_not_suppress_other_rules(self, tmp_path):
        write_sim_file(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    return time.time()"
            "  # lint: allow[MSL006] wrong rule for this hazard\n",
        )
        findings = lint_paths(["src"], root=tmp_path)
        rules = sorted(f.rule for f in findings)
        # The MSL001 finding survives; the MSL006 allowance is unused.
        assert rules == ["MSL000", "MSL001"]

    def test_multi_rule_pragma(self, tmp_path):
        write_sim_file(
            tmp_path,
            "import time\nfrom numpy.random import default_rng\n\n\n"
            "def f():\n"
            "    return time.time(), default_rng()"
            "  # lint: allow[MSL001,MSL006] smoke harness, not measured\n",
        )
        assert lint_paths(["src"], root=tmp_path) == []


class TestSyntaxError:
    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        write_sim_file(tmp_path, "def broken(:\n    pass\n")
        findings = lint_paths(["src"], root=tmp_path)
        assert len(findings) == 1
        assert findings[0].rule == "MSL000"
        assert findings[0].severity == "error"
        assert "syntax error" in findings[0].message


class TestOrderingAndDeterminism:
    def test_findings_are_stably_sorted(self):
        findings = lint_paths(["src"], root=CORPUS / "badproj")
        assert findings == sort_findings(findings)
        keys = [f.sort_key() for f in findings]
        assert keys == sorted(keys)

    def test_two_runs_render_byte_identical(self):
        first = lint_paths(["src"], root=CORPUS / "badproj")
        second = lint_paths(["src"], root=CORPUS / "badproj")
        assert render_text(first).encode() == render_text(second).encode()
        assert render_json(first).encode() == render_json(second).encode()

    def test_text_rendering_shape(self):
        findings = lint_paths(["src"], root=CORPUS / "badproj")
        lines = render_text(findings).splitlines()
        assert lines[-1].endswith("finding(s): 17 error(s), 0 warning(s)")
        first = findings[0]
        assert lines[0] == (
            f"{first.path}:{first.line}:{first.col}: "
            f"{first.rule} [{first.severity}] {first.message}"
        )


class TestJsonRoundTrip:
    def test_round_trip_preserves_findings(self):
        findings = lint_paths(["src"], root=CORPUS / "badproj")
        assert findings_from_json(render_json(findings)) == findings

    def test_schema_shape(self):
        findings = lint_paths(["src"], root=CORPUS / "badproj")
        payload = json.loads(render_json(findings))
        assert payload["schema"] == JSON_SCHEMA
        assert payload["count"] == len(findings)
        assert payload["errors"] == sum(
            1 for f in findings if f.severity == "error"
        )
        assert payload["warnings"] == payload["count"] - payload["errors"]
        entry = payload["findings"][0]
        assert set(entry) == {
            "rule", "severity", "path", "line", "col", "message"
        }

    def test_rejects_foreign_schema(self):
        doc = json.dumps({"schema": "not-lint/v9", "findings": []})
        try:
            findings_from_json(doc)
        except ValueError as exc:
            assert "schema" in str(exc)
        else:
            raise AssertionError("foreign schema accepted")

    def test_empty_round_trip(self):
        assert findings_from_json(render_json([])) == []


class TestFindingOrderKey:
    def test_sort_key_orders_by_location_then_rule(self):
        a = Finding("MSL006", "error", "a.py", 3, 1, "zzz")
        b = Finding("MSL001", "error", "a.py", 3, 1, "aaa")
        c = Finding("MSL001", "error", "a.py", 2, 9, "mmm")
        assert sort_findings([a, b, c]) == [c, b, a]
