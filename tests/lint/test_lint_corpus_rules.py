"""Corpus tests: each rule fires on its known-bad fixture and stays
quiet on the safe twin.

The fixture under ``corpus/`` is a mini project tree that mirrors the
real ``src/repro/...`` layout, so path scoping (MSL001, MSL007) resolves
exactly as it does on the real tree — the lint just gets a different
``root``.  ``corpus/<tree>.findings.txt`` pins each tree's full finding
list.
"""

from pathlib import Path

import pytest

from determinism_lint import lint, render

CORPUS = Path(__file__).parent / "corpus"


def lint_project(project: str):
    return lint(CORPUS / project)


def findings_in(findings, path_suffix, rule=None):
    return [
        f
        for f in findings
        if f[0].endswith(path_suffix) and (rule is None or f[3] == rule)
    ]


class TestMSL001Determinism:
    def test_fires_on_every_hazard_class(self):
        found = findings_in(
            lint_project("badproj"), "determinism_bad.py", "MSL001"
        )
        messages = "\n".join(f[4] for f in found)
        assert "time.time()" in messages
        assert "datetime.datetime.now()" in messages
        assert "random.random()" in messages
        assert "numpy.random.normal()" in messages
        assert "os.listdir()" in messages
        assert ".iterdir()" in messages
        assert "glob.glob()" in messages
        assert "os.walk()" in messages
        assert "iteration over a set expression" in messages
        assert "comprehension over a set expression" in messages
        assert len(found) == 10

    def test_quiet_on_sorted_sinks_and_seeded_stdlib_rng(self):
        findings = lint_project("badproj")
        assert findings_in(findings, "determinism_ok.py") == []

    def test_does_not_police_non_simulation_paths(self):
        # rng_bad.py lives under core/ — MSL001 is scoped out there even
        # though it calls numpy.random.seed (MSL006's business), and a
        # provenance wall-clock stamp under core/ is no finding at all.
        findings = lint_project("badproj")
        assert findings_in(findings, "rng_bad.py", "MSL001") == []
        assert findings_in(findings, "stamp_ok.py") == []


class TestMSL006RngDiscipline:
    def test_fires_on_every_construction_pattern(self):
        found = findings_in(lint_project("badproj"), "rng_bad.py", "MSL006")
        messages = "\n".join(f[4] for f in found)
        assert "default_rng() without a seed" in messages
        assert "ignores_seed() takes rng/seed" in messages
        assert "numpy.random.seed() reseeds the *global* generator" in messages
        assert "random.Random() without a seed" in messages
        assert len(found) == 4

    def test_quiet_on_threaded_and_pinned_seeds(self):
        findings = lint_project("badproj")
        assert findings_in(findings, "rng_ok.py") == []


class TestMSL007TransportLayering:
    def test_fires_on_every_import_pattern(self):
        found = findings_in(
            lint_project("badproj"), "transport_bad.py", "MSL007"
        )
        messages = "\n".join(f[4] for f in found)
        assert "'repro.mlg.server'" in messages
        assert "'repro.mlg.netqueue'" in messages
        assert "'repro.mlg.world'" in messages
        assert len(found) == 4  # import, from-mlg, and 2 from-submodule

    def test_quiet_on_boundary_imports(self):
        findings = lint_project("badproj")
        assert findings_in(findings, "transport_ok.py") == []

    def test_scoped_to_emulation(self):
        # mlg-internal files import each other freely; MSL007 polices
        # only src/repro/emulation/.
        findings = lint_project("badproj")
        assert findings_in(findings, "determinism_ok.py", "MSL007") == []


@pytest.mark.parametrize("tree", ["badproj"])
def test_full_finding_list_is_pinned(tree):
    # Rule, path, line, col and message of every finding: a dropped,
    # moved or reworded finding fails here.
    expected = (CORPUS / f"{tree}.findings.txt").read_text()
    assert render(lint_project(tree)) == expected
