"""The tier-1 gate: the determinism lint finds nothing under ``src/``,
and one seeded violation in a copy of that tree fails it."""

import shutil
from pathlib import Path

import pytest

from determinism_lint import lint, render

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).parent / "corpus"


def assert_clean(root):
    findings = lint(root)
    assert not findings, "determinism lint findings:\n" + render(findings)


def test_src_is_clean():
    assert_clean(REPO_ROOT)


def test_a_seeded_violation_fails_the_gate(tmp_path):
    shutil.copytree(
        REPO_ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    seeded = tmp_path / "src" / "repro" / "mlg" / "freshly_bad.py"
    seeded.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    with pytest.raises(AssertionError) as failure:
        assert_clean(tmp_path)
    listed = [line.strip() for line in str(failure.value).splitlines()]
    assert listed[1].startswith(
        "src/repro/mlg/freshly_bad.py:5:12: MSL001 wall-clock read "
        "time.time()"
    )
    assert listed[2] == "1 finding(s)"


def test_the_bad_corpus_fails_the_gate():
    with pytest.raises(AssertionError) as failure:
        assert_clean(CORPUS / "badproj")
    listed = [line.strip() for line in str(failure.value).splitlines()]
    expected = (CORPUS / "badproj.findings.txt").read_text().splitlines()
    assert listed[1:20] == expected
    assert expected[-1] == "18 finding(s)"


def test_a_clean_tree_passes_the_gate(tmp_path):
    clean = tmp_path / "src" / "repro" / "mlg" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text("def f(rng):\n    return rng.random()\n")
    assert_clean(tmp_path)
    assert render(lint(tmp_path)) == "0 finding(s)\n"


def test_a_root_without_src_is_an_error(tmp_path):
    # A gate that read nothing must not pass.
    with pytest.raises(FileNotFoundError, match="no src/ directory"):
        lint(tmp_path)
    with pytest.raises(FileNotFoundError):
        lint(CORPUS)


def test_an_unparseable_file_fails_naming_its_path_and_line(tmp_path):
    broken = tmp_path / "src" / "repro" / "mlg" / "snippet.py"
    broken.parent.mkdir(parents=True)
    broken.write_text("x = 1\ndef broken(:\n    pass\n")
    with pytest.raises(SyntaxError) as failure:
        lint(tmp_path)
    assert failure.value.filename == "src/repro/mlg/snippet.py"
    assert failure.value.lineno == 2
