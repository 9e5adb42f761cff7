"""Engine-level behavior: no suppression, ordering, and determinism."""

from pathlib import Path

from repro.lint import lint_paths, render_text
from repro.lint.findings import Finding, sort_findings

CORPUS = Path(__file__).parent / "corpus"


def write_sim_file(root: Path, body: str) -> Path:
    path = root / "src" / "repro" / "mlg" / "snippet.py"
    path.parent.mkdir(parents=True)
    path.write_text(body)
    return path


class TestNoSuppression:
    def test_former_pragma_comment_suppresses_nothing(self, tmp_path):
        write_sim_file(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    return time.time()"
            "  # lint: allow[MSL001] operator log stamp only\n",
        )
        findings = lint_paths(["src"], root=tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("MSL001", 5)]


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

    def test_text_rendering_shape(self):
        findings = lint_paths(["src"], root=CORPUS / "badproj")
        lines = render_text(findings).splitlines()
        assert lines[-1] == "18 finding(s)"
        first = findings[0]
        assert lines[0] == (
            f"{first.path}:{first.line}:{first.col}: "
            f"{first.rule} {first.message}"
        )


class TestFindingOrderKey:
    def test_sort_key_orders_by_location_then_rule(self):
        a = Finding("MSL006", "a.py", 3, 1, "zzz")
        b = Finding("MSL001", "a.py", 3, 1, "aaa")
        c = Finding("MSL001", "a.py", 2, 9, "mmm")
        assert sort_findings([a, b, c]) == [c, b, a]
