"""CLI tests for the ``repro lint`` verb: exit codes, error paths, and
the gate tier-1 runs on the real tree."""

import shutil
from pathlib import Path

import pytest

from repro.campaign.cli import main

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
        assert capsys.readouterr().out == "0 finding(s)\n"

    def test_missing_path_exit_2(self, capsys):
        assert main(["lint", "no/such/dir", "--root", str(CORPUS)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unparseable_file_exits_2_naming_path_line(self, tmp_path, capsys):
        broken = tmp_path / "src" / "repro" / "mlg" / "snippet.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("x = 1\ndef broken(:\n    pass\n")
        assert main(["lint", "src", "--root", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: src/repro/mlg/snippet.py:2: syntax error: "
        )
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flag",
        ["--baseline", "--update-baseline", "--format=json", "--out=x.json"],
    )
    def test_removed_flags_are_refused(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lint", "src", flag])
        assert exc.value.code == 2


class TestRepoIsClean:
    """The acceptance bar: ``repro lint src`` at HEAD exits 0, and one
    seeded violation in that same tree fails it."""

    def test_lint_src_at_head_is_clean(self, capsys):
        assert main(["lint", "src", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_seeded_violation_fails_lint_src(self, tmp_path, capsys):
        shutil.copytree(
            REPO_ROOT / "src",
            tmp_path / "src",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        seeded = tmp_path / "src" / "repro" / "mlg" / "freshly_bad.py"
        seeded.write_text(
            "import time\n\n\ndef f():\n    return time.time()\n"
        )
        assert main(["lint", "src", "--root", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "src/repro/mlg/freshly_bad.py:5:12: MSL001 wall-clock read "
            "time.time()"
        )
        assert lines[1:] == ["1 finding(s)"]
