"""CLI tests for the ``repro lint`` verb: exit codes, JSON output, the
artifact file, and the baseline workflow the CI gate relies on."""

import json
import shutil
from pathlib import Path

from repro.campaign.cli import main
from repro.lint.findings import JSON_SCHEMA, findings_from_json

CORPUS = Path(__file__).parent / "corpus"
REPO_ROOT = Path(__file__).resolve().parents[2]


class TestExitCodes:
    def test_findings_exit_1(self, capsys):
        assert main(["lint", "src", "--root", str(CORPUS / "badproj")]) == 1

    def test_clean_tree_exit_0(self, tmp_path, capsys):
        clean = tmp_path / "src" / "repro" / "mlg" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("def f(rng):\n    return rng.random()\n")
        assert main(["lint", "src", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s): 0 error(s), 0 warning(s)" in out

    def test_missing_path_exit_2(self, capsys):
        assert main(["lint", "no/such/dir", "--root", str(CORPUS)]) == 2
        assert "error:" in capsys.readouterr().err


class TestJsonOutput:
    def test_stdout_json_parses_and_round_trips(self, capsys):
        code = main(
            [
                "lint", "src",
                "--root", str(CORPUS / "badproj"),
                "--format", "json",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema"] == JSON_SCHEMA
        assert payload["count"] == len(payload["findings"]) > 0
        assert findings_from_json(out)  # same document, typed

    def test_out_artifact_written_even_in_text_mode(self, tmp_path, capsys):
        artifact = tmp_path / "ci" / "lint-findings.json"
        code = main(
            [
                "lint", "src",
                "--root", str(CORPUS / "badproj"),
                "--out", str(artifact),
            ]
        )
        assert code == 1
        findings = findings_from_json(artifact.read_text())
        assert {f.rule for f in findings} >= {"MSL001", "MSL006", "MSL007"}


class TestBaselineWorkflow:
    """The CI-gate semantics: grandfather today's findings, fail on new
    ones — including a deliberately-seeded violation."""

    def seeded_tree(self, tmp_path) -> Path:
        root = tmp_path / "proj"
        shutil.copytree(CORPUS / "badproj", root)
        return root

    def test_update_then_baseline_passes(self, tmp_path, capsys):
        root = self.seeded_tree(tmp_path)
        assert main(
            ["lint", "src", "--root", str(root), "--update-baseline"]
        ) == 0
        assert "review and commit the diff" in capsys.readouterr().out
        baseline = json.loads((root / "lint-baseline.json").read_text())
        assert baseline["version"] == 1
        assert len(baseline["suppressions"]) > 0
        assert main(["lint", "src", "--root", str(root), "--baseline"]) == 0
        assert "baselined finding(s) suppressed" in capsys.readouterr().out

    def test_new_violation_fails_baselined_gate(self, tmp_path, capsys):
        root = self.seeded_tree(tmp_path)
        assert main(
            ["lint", "src", "--root", str(root), "--update-baseline"]
        ) == 0
        capsys.readouterr()
        seeded = root / "src" / "repro" / "mlg" / "freshly_bad.py"
        seeded.write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        assert main(["lint", "src", "--root", str(root), "--baseline"]) == 1
        out = capsys.readouterr().out
        # Only the new finding surfaces; the grandfathered ones stay out.
        assert "freshly_bad.py" in out
        assert "1 finding(s): 1 error(s)" in out

    def test_corrupt_baseline_exit_2(self, tmp_path, capsys):
        root = self.seeded_tree(tmp_path)
        (root / "lint-baseline.json").write_text('{"version": 99}\n')
        assert main(["lint", "src", "--root", str(root), "--baseline"]) == 2
        assert "baseline version" in capsys.readouterr().err

    def test_missing_baseline_is_empty(self, tmp_path, capsys):
        root = self.seeded_tree(tmp_path)
        assert main(["lint", "src", "--root", str(root), "--baseline"]) == 1


class TestRepoIsClean:
    """The acceptance bar: ``repro lint src`` at HEAD exits 0 and the
    committed baseline carries no suppressions."""

    def test_lint_src_at_head_is_clean(self, capsys):
        assert main(["lint", "src", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_committed_baseline_is_empty(self):
        baseline = json.loads(
            (REPO_ROOT / "lint-baseline.json").read_text()
        )
        assert baseline == {"suppressions": [], "version": 1}
