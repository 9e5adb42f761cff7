"""Corpus tests: each rule fires on its known-bad fixture and stays
quiet on the pragma'd/allowlisted twin.

The fixtures under ``corpus/`` are mini project trees that mirror the
real ``src/repro/...`` layout, so path scoping (MSL001) and the
registry-file locations (MSL002, MSL005, MSL008) resolve exactly as they do on
the real tree — the engine just gets a different ``root``.
"""

from pathlib import Path

from repro.lint import lint_paths

CORPUS = Path(__file__).parent / "corpus"


def lint_project(project: str):
    return lint_paths(["src"], root=CORPUS / project)


def findings_in(findings, path_suffix, rule=None):
    return [
        f
        for f in findings
        if f.path.endswith(path_suffix) and (rule is None or f.rule == rule)
    ]


class TestMSL001Determinism:
    def test_fires_on_every_hazard_class(self):
        found = findings_in(
            lint_project("badproj"), "determinism_bad.py", "MSL001"
        )
        messages = "\n".join(f.message for f in found)
        assert "time.time()" in messages
        assert "datetime.datetime.now()" in messages
        assert "random.random()" in messages
        assert "numpy.random.normal()" in messages
        assert "os.listdir()" in messages
        assert ".iterdir()" in messages
        assert "glob.glob()" in messages
        assert "iteration over a set expression" in messages
        assert "comprehension over a set expression" in messages
        assert len(found) == 9

    def test_quiet_on_sorted_sinks_and_pragma(self):
        findings = lint_project("badproj")
        assert findings_in(findings, "determinism_ok.py") == []

    def test_does_not_police_non_simulation_paths(self):
        # rng_bad.py lives under core/ — MSL001 is scoped out there even
        # though it calls numpy.random.seed (MSL006's business).
        findings = lint_project("badproj")
        assert findings_in(findings, "rng_bad.py", "MSL001") == []


class TestMSL002OpAccounting:
    def test_fires_on_unregistered_count_sites(self):
        found = findings_in(lint_project("badproj"), "ops_bad.py", "MSL002")
        messages = "\n".join(f.message for f in found)
        assert "Op.GAMMA is not a registered Op constant" in messages
        assert "report.add('unpriced_op')" in messages
        assert len(found) == 2

    def test_quiet_on_registered_ops_and_pragma(self):
        findings = lint_project("badproj")
        assert findings_in(findings, "ops_ok.py") == []

    def test_registry_cross_checks(self):
        findings = [
            f for f in lint_project("regbad") if f.rule == "MSL002"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "Op.ORPHAN missing from Op.ALL" in messages
        assert "Op.ORPHAN has no cost" in messages
        assert "Op.BETA has no cost" in messages
        assert "Op.ORPHAN has no explicit _BUCKET_BY_OP entry" in messages
        assert "stale cost-table entry Op.STALE" in messages
        assert "unknown bucket 'Bogus Bucket'" in messages

    def test_registry_quiet_when_consistent(self):
        assert lint_project("regok") == []


class TestMSL005TelemetryRegistration:
    def test_fires_on_unregistered_stale_and_unknown_column(self):
        findings = [
            f for f in lint_project("regbad") if f.rule == "MSL005"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "'mystery_ms' is published to the bus but missing" in messages
        assert "'stale_ms' is never published" in messages
        assert (
            "names 'unknown_field', which is not a METRIC_FIELDS"
            in messages
        )
        assert len(findings) == 3

    def test_resolves_metric_name_through_module_constant(self):
        # tick_ms is published via the TICK_METRIC constant and is
        # registered, so it must NOT be flagged as unregistered.
        findings = [
            f for f in lint_project("regbad") if f.rule == "MSL005"
        ]
        assert not any("'tick_ms' is published" in f.message for f in findings)


class TestMSL006RngDiscipline:
    def test_fires_on_every_construction_pattern(self):
        found = findings_in(lint_project("badproj"), "rng_bad.py", "MSL006")
        messages = "\n".join(f.message for f in found)
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
        messages = "\n".join(f.message for f in found)
        assert "'repro.mlg.server'" in messages
        assert "'repro.mlg.netqueue'" in messages
        assert "'repro.mlg.world'" in messages
        assert len(found) == 4  # import, from-mlg, and 2 from-submodule

    def test_quiet_on_boundary_imports_and_pragma(self):
        findings = lint_project("badproj")
        assert findings_in(findings, "transport_ok.py") == []

    def test_scoped_to_emulation(self):
        # mlg-internal files import each other freely; MSL007 polices
        # only src/repro/emulation/.
        findings = lint_project("badproj")
        assert findings_in(findings, "ops_ok.py", "MSL007") == []


class TestMSL008ObsRegistration:
    def test_fires_on_unregistered_stale_and_bad_source(self):
        findings = [
            f for f in lint_project("regbad") if f.rule == "MSL008"
        ]
        messages = "\n".join(f.message for f in findings)
        assert (
            "'repro_mystery_total' is exported to the obs endpoint but "
            "missing" in messages
        )
        assert "'repro_orphan_total' is never exported" in messages
        assert (
            "names source 'ghost_stream', which is neither a "
            "SIDECAR_METRICS stream nor an obs section" in messages
        )
        assert len(findings) == 3

    def test_registered_exports_and_sections_stay_quiet(self):
        # repro_tick_p50_ms is exported and sourced from a real sidecar
        # stream; repro_bogus_ms IS exported so only its source fires.
        findings = [
            f for f in lint_project("regbad") if f.rule == "MSL008"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "'repro_tick_p50_ms'" not in messages
        assert "'repro_bogus_ms' is never exported" not in messages

    def test_findings_anchor_on_the_registry_entry_line(self):
        by_msg = {
            f.message: f
            for f in lint_project("regbad")
            if f.rule == "MSL008" and "registry" in f.path
        }
        lines = {f.line for f in by_msg.values()}
        assert len(lines) == len(by_msg)  # one entry line each, not the dict


class TestPartialScan:
    def test_single_file_scan_skips_registry_finalizers(self):
        # Linting one file must not fire "never published"/"missing
        # from ALL" registry checks — they need the whole tree.
        findings = lint_paths(
            ["src/repro/telemetry/tap.py"], root=CORPUS / "regbad"
        )
        assert all(f.rule == "MSL005" for f in findings)
        messages = "\n".join(f.message for f in findings)
        assert "'mystery_ms' is published" in messages  # per-file: kept
        assert "stale_ms" not in messages  # finalize-only: skipped
