"""Knob self-check: a run knob is declared once, as a dataclass field,
and everything said about it — default, check, overridable, fingerprint
— is read off that declaration.  These tests look at
``dataclasses.fields()`` of the real classes (they replace the lint rules
that compared hand-kept copies), and pin the input the measurement
fingerprint is fed to what the parent commit fed it."""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from repro.campaign.spec import _OVERRIDABLE_FIELDS, CampaignSpec
from repro.core.config import MeterstickConfig, RunKnobs
from repro.tracing.provenance import measurement_config

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_measurement_config.json").read_text()
)

#: The fields that locate storage, size the worker pool or shape
#: presentation; every other field is part of the fingerprint.
EXCLUDED = {
    "output_dir", "world_dir", "world_cache_dir", "jobs", "output",
}


def field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def config_surface() -> set[str]:
    return field_names(MeterstickConfig) | field_names(CampaignSpec)


def own_annotations(cls) -> set[str]:
    return set(vars(cls).get("__annotations__", ()))


class TestProvenanceRegistry:
    def test_registries_partition_the_config_surface(self):
        excluded = {
            f.name
            for cls in (MeterstickConfig, CampaignSpec)
            for f in dataclasses.fields(cls)
            if not f.metadata.get("fingerprint", True)
        }
        assert excluded == EXCLUDED
        assert EXCLUDED <= config_surface()

    def test_no_duplicate_registry_entries(self):
        # Neither class re-declares a knob it inherits ...
        for cls in (MeterstickConfig, CampaignSpec):
            assert own_annotations(cls) & own_annotations(RunKnobs) == set()
        # ... so a shared knob is one Field object with one default and
        # one fingerprint decision.  ``servers`` is the only other name
        # the two classes share: a list of systems under test on the
        # config, a matrix axis on the spec.
        shared = field_names(MeterstickConfig) & field_names(CampaignSpec)
        assert shared - {"servers"} == field_names(RunKnobs)
        assert len(field_names(RunKnobs)) == 17
        for name in field_names(RunKnobs):
            assert (
                MeterstickConfig.__dataclass_fields__[name]
                is CampaignSpec.__dataclass_fields__[name]
            ), name

    def test_measurement_config_strips_exactly_the_exclusions(self):
        resolved = {name: name for name in config_surface()}
        stripped = measurement_config(resolved)
        assert set(stripped) == set(resolved) - EXCLUDED


class TestKnobDeclarations:
    def test_overridable_fields_are_config_fields_outside_cell_identity(self):
        assert _OVERRIDABLE_FIELDS == {
            "duration_s", "iterations", "warm_machines",
            "inter_iteration_gap_s",
            "autosave_interval_s", "autosave_flush_every",
            "max_loaded_chunks", "trace",
            "slow_tick_factor", "transport", "wire_port",
            "obs", "obs_port", "obs_scrape_grace",
        }
        assert _OVERRIDABLE_FIELDS <= field_names(MeterstickConfig)
        # What a cell *is* — its matrix-axis values and the seed — may
        # not be patched per cell.
        identity = {
            "servers", "world", "environment", "scale", "number_of_bots",
            "behavior", "seed",
        }
        assert _OVERRIDABLE_FIELDS & identity == set()

    def test_every_config_field_is_read_by_running_code(self):
        # A field only its declaration, its validation or the spec's
        # forward mentions configures nothing: delete it instead.  The
        # read must be off a ``config`` or ``spec`` object, so that a
        # same-named attribute of another class (a hosting plan's
        # ``ram_gb``) does not count.
        declaring = {SRC / "core" / "config.py", SRC / "campaign" / "spec.py"}
        read = {
            node.attr
            for path in SRC.rglob("*.py")
            if path not in declaring
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and ast.unparse(node.value).rsplit(".", 1)[-1]
            in ("config", "spec")
        }
        assert field_names(MeterstickConfig) - read == set()

    def test_every_check_is_a_predicate_with_its_wording(self):
        for cls in (MeterstickConfig, CampaignSpec):
            for f in dataclasses.fields(cls):
                check = f.metadata.get("check")
                if check is not None:
                    predicate, requirement = check
                    assert callable(predicate) and requirement, f.name

    @pytest.mark.parametrize("cls", [MeterstickConfig, CampaignSpec])
    @pytest.mark.parametrize(
        "knob, bad",
        [
            ("duration_s", 0.0), ("iterations", 0), ("transport", "udp"),
            ("wire_port", 70000), ("obs_port", -1),
            ("obs_scrape_grace", -0.1), ("autosave_interval_s", 0.0),
            ("autosave_flush_every", -1), ("max_loaded_chunks", 0),
            ("slow_tick_factor", 0.0),
        ],
    )
    def test_shared_checks_guard_both_classes(self, cls, knob, bad):
        with pytest.raises(ValueError, match=knob):
            cls(**{knob: bad})

    def test_cell_config_forwards_every_shared_knob(self):
        # Every shared knob set away from its default reaches the cell's
        # config (world_dir becomes the cell's own subtree).
        changed = dict(
            duration_s=7.0, iterations=2, output_dir="out", transport="tcp",
            wire_port=1234, world_dir="worlds",
            autosave_interval_s=3.0, autosave_flush_every=2,
            max_loaded_chunks=99, trace=True,
            slow_tick_factor=2.0, obs=True, obs_port=4321,
            obs_scrape_grace=1.5, seed=11, inter_iteration_gap_s=4.0,
            warm_machines=True,
        )
        assert set(changed) == field_names(RunKnobs)
        spec = CampaignSpec(**changed)
        config = spec.cell_config(spec.cells()[0])
        for name, value in changed.items():
            if name == "world_dir":
                assert Path(config.world_dir).parent == Path("worlds")
            else:
                assert getattr(config, name) == value, name


class TestGoldenMeasurementConfig:
    """``golden_measurement_config.json`` was captured at the parent of
    the knob-declaration refactor with ``measurement_config(x.to_dict())``
    for the objects below; equal dicts mean equal fingerprints."""

    def test_default_config_and_spec(self):
        assert (
            measurement_config(MeterstickConfig().to_dict())
            == GOLDEN["MeterstickConfig()"]
        )
        assert (
            measurement_config(CampaignSpec().to_dict())
            == GOLDEN["CampaignSpec()"]
        )

    def test_every_example_spec_and_cell(self):
        seen = set()
        for path in sorted((ROOT / "examples").iterdir()):
            if path.suffix not in (".yaml", ".yml", ".json"):
                continue
            spec = CampaignSpec.from_file(path)
            assert (
                json.loads(json.dumps(measurement_config(spec.to_dict())))
                == GOLDEN[f"{path.name}:spec"]
            )
            seen.add(f"{path.name}:spec")
            for cell in spec.cells():
                key = f"{path.name}:{cell.key()}"
                resolved = spec.cell_config(cell).to_dict()
                assert (
                    json.loads(json.dumps(measurement_config(resolved)))
                    == GOLDEN[key]
                ), key
                seen.add(key)
        assert seen == set(GOLDEN) - {"MeterstickConfig()", "CampaignSpec()"}
