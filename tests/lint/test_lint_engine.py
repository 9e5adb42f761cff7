"""Lint-level behaviour: no suppression, ordering, and determinism."""

from pathlib import Path

from determinism_lint import lint, render

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
        found = [(rule, line) for _, line, _, rule, _ in lint(tmp_path)]
        assert found == [("MSL001", 5)]


class TestOrderingAndDeterminism:
    def test_findings_are_stably_sorted(self):
        findings = lint(CORPUS / "badproj")
        assert len(findings) == 18
        assert findings == sorted(findings)

    def test_two_runs_render_byte_identical(self):
        first = lint(CORPUS / "badproj")
        second = lint(CORPUS / "badproj")
        assert render(first).encode() == render(second).encode()

    def test_text_rendering_shape(self):
        findings = lint(CORPUS / "badproj")
        lines = render(findings).splitlines()
        assert lines[-1] == "18 finding(s)"
        path, line, col, rule, message = findings[0]
        assert lines[0] == f"{path}:{line}:{col}: {rule} {message}"


class TestFindingOrderKey:
    def test_sort_key_orders_by_location_then_rule(self, tmp_path):
        # MSL006 runs before MSL001 on a file, and both fire on the
        # global reseed at 6:5; the list is ordered by location, then
        # rule.
        write_sim_file(
            tmp_path,
            "import numpy as np\nimport time\n\n\ndef f():\n"
            "    np.random.seed(1)\n"
            "    return time.time(), np.random.default_rng()\n",
        )
        found = [(line, col, rule) for _, line, col, rule, _ in lint(tmp_path)]
        assert found == [
            (6, 5, "MSL001"),
            (6, 5, "MSL006"),
            (7, 12, "MSL001"),
            (7, 25, "MSL006"),
        ]
