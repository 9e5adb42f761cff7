"""Campaign specification: a parameter matrix over Meterstick configs.

Meterstick's core claim is that characterizing variability takes *many*
runs — multiple systems under test × workloads × environments, repeated.
A :class:`CampaignSpec` declares that matrix once (benchalot-style):
every axis is a literal list, the cross product is the set of cells, and
each cell maps to one plain :class:`MeterstickConfig` via
:meth:`CampaignSpec.cell_config`.  Specs load from YAML or JSON files;
expansion is purely literal — no ``{{var}}`` templating — with optional
``overrides`` entries that patch matching cells.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path

from repro.cloud.providers import get_environment
from repro.core.config import (
    AT_LEAST_ONE,
    MeterstickConfig,
    RunKnobs,
    check_knob,
    knob,
)
from repro.emulation.behavior import BEHAVIORS
from repro.mlg.variants import get_variant
from repro.workloads import WORKLOADS

__all__ = ["CampaignCell", "CampaignSpec", "MATRIX_AXES"]

#: Cell attribute name per matrix axis, in expansion (= nesting) order.
MATRIX_AXES = (
    ("servers", "server"),
    ("workloads", "workload"),
    ("environments", "environment"),
    ("scales", "scale"),
    ("bot_counts", "n_bots"),
    ("behaviors", "behavior"),
)

#: ``overrides[*].set`` may patch the MeterstickConfig fields declared
#: ``overridable``.  Matrix-axis fields (scale, number_of_bots, behavior)
#: and ``seed`` are deliberately not: they define a cell's identity — its
#: job id, seeds, and export labels — so patching them would let two
#: "distinct" jobs run identical configs, or report an axis value the run
#: never used.
_OVERRIDABLE_FIELDS = frozenset(
    name
    for name, declared in MeterstickConfig.__dataclass_fields__.items()
    if declared.metadata.get("overridable")
)


@dataclass(frozen=True)
class CampaignCell:
    """One point of the campaign matrix (before config materialization)."""

    server: str
    workload: str
    environment: str
    scale: float
    n_bots: int
    behavior: str

    def key(self) -> str:
        """Human-readable identity used in job ids and logs."""
        return (
            f"{self.server}|{self.workload}|{self.environment}"
            f"|{self.scale:g}|{self.n_bots}|{self.behavior}"
        )


@dataclass
class CampaignSpec(RunKnobs):
    """A full benchmark campaign: matrix axes plus shared run parameters.

    Axes multiply: ``len(servers) * len(workloads) * len(environments) *
    len(scales) * len(bot_counts) * len(behaviors)`` cells.  The shared
    run knobs (:class:`~repro.core.config.RunKnobs`: ``iterations``,
    ``duration_s``, ``seed``, …) apply to every cell unless an
    ``overrides`` entry patches it.

    ``overrides`` entries have the shape::

        {"where": {"workload": "players", "environment": "aws-t3.large"},
         "set": {"duration_s": 120.0, "warm_machines": True}}

    ``where`` keys are cell attribute names; a cell matches when all its
    listed attributes equal the given values.  Later entries win.
    """

    name: str = "campaign"
    servers: list[str] = field(default_factory=lambda: ["vanilla"])
    workloads: list[str] = field(default_factory=lambda: ["control"])
    environments: list[str] = field(default_factory=lambda: ["das5-2core"])
    scales: list[float] = field(default_factory=lambda: [1.0])
    bot_counts: list[int] = field(default_factory=lambda: [25])
    behaviors: list[str] = field(default_factory=lambda: ["bounded-random"])

    #: Pre-generate each distinct starting world once under
    #: ``<output_dir>/world-cache/`` (named by ``world_cache_key``) and
    #: warm-boot every iteration from it: faster campaigns, bit-identical
    #: initial worlds.  Pins each cell's terrain seed to the campaign
    #: ``seed``.
    warm_world_cache: bool = False

    #: Default worker-process count for the executor (CLI ``--jobs`` wins).
    jobs: int = knob(1, check=AT_LEAST_ONE, fingerprint=False)

    overrides: list[dict] = field(default_factory=list)

    # -- presentation & provenance (never change what gets simulated) -----
    #: ``output:`` report declaration (pivots, plots, html/csv names);
    #: empty mapping -> the default report.  Editable after a campaign
    #: ran — ``repro report --update-output`` re-renders without
    #: touching job records, so it stays outside the fingerprint.  See
    #: :mod:`repro.reporting.spec`.
    output: dict = field(default_factory=dict, metadata={"fingerprint": False})
    #: ``system:`` measurement-hygiene requests (governor, SMT, ASLR,
    #: boost, CPU isolation, load ceiling).  Probed against the host at
    #: run start and stamped into the manifest's provenance.
    system: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on an invalid matrix or override table."""
        for axis, _ in MATRIX_AXES:
            if not getattr(self, axis):
                raise ValueError(f"matrix axis {axis!r} must be non-empty")
        for server in self.servers:
            get_variant(server)  # raises on unknown
        for environment in self.environments:
            get_environment(environment)
        for workload in self.workloads:
            if workload.lower() not in WORKLOADS:
                known = ", ".join(sorted(WORKLOADS))
                raise ValueError(
                    f"unknown workload {workload!r}; known: {known}"
                )
        for behavior in self.behaviors:
            if behavior.lower() not in BEHAVIORS:
                known = ", ".join(BEHAVIORS)
                raise ValueError(
                    f"unknown behavior {behavior!r}; known: {known}"
                )
        for scale in self.scales:
            check_knob(MeterstickConfig, "scale", scale)
        for n_bots in self.bot_counts:
            check_knob(MeterstickConfig, "number_of_bots", n_bots)
        self.check_knobs()
        if self.output:
            from repro.reporting.spec import validate_output

            validate_output(self.output)
        if self.system:
            from repro.reporting.spec import validate_system

            validate_system(self.system)
        cell_fields = {attr for _, attr in MATRIX_AXES}
        for index, override in enumerate(self.overrides):
            if not isinstance(override, dict) or set(override) - {
                "where",
                "set",
            }:
                raise ValueError(
                    f"overrides[{index}] must be a dict with only "
                    f"'where'/'set' keys: {override!r}"
                )
            where = override.get("where", {})
            patch = override.get("set", {})
            unknown_where = set(where) - cell_fields
            if unknown_where:
                raise ValueError(
                    f"overrides[{index}].where has unknown cell fields "
                    f"{sorted(unknown_where)}; known: {sorted(cell_fields)}"
                )
            unknown_set = set(patch) - _OVERRIDABLE_FIELDS
            if unknown_set:
                raise ValueError(
                    f"overrides[{index}].set has unsupported config fields "
                    f"{sorted(unknown_set)}; "
                    f"known: {sorted(_OVERRIDABLE_FIELDS)}"
                )

    # -- matrix expansion ---------------------------------------------------

    @property
    def n_cells(self) -> int:
        count = 1
        for axis, _ in MATRIX_AXES:
            count *= len(getattr(self, axis))
        return count

    def cells(self) -> list[CampaignCell]:
        """Expand the matrix in deterministic axis-nesting order."""
        values = [getattr(self, axis) for axis, _ in MATRIX_AXES]
        return [
            CampaignCell(
                server=server,
                workload=workload,
                environment=environment,
                scale=float(scale),
                n_bots=int(n_bots),
                behavior=behavior,
            )
            for server, workload, environment, scale, n_bots, behavior in (
                product(*values)
            )
        ]

    def cell_config(self, cell: CampaignCell) -> MeterstickConfig:
        """Materialize the plain single-cell config the runner executes."""
        # Live world directories must be disjoint per cell (chains run in
        # parallel); the runner adds the per-iteration leaf below this.
        world_dir = self.world_dir
        if world_dir is not None:
            world_dir = str(
                Path(world_dir) / cell.key().replace("|", "_")
            )
        world_cache_dir = None
        if self.warm_world_cache:
            from repro.persistence.warmup import world_cache_key

            world_cache_dir = str(
                Path(self.output_dir)
                / "world-cache"
                / world_cache_key(cell.workload, cell.scale, self.seed)
            )
        kwargs = {
            name: getattr(self, name)
            for name in RunKnobs.__dataclass_fields__
        }
        kwargs.update(
            servers=[cell.server],
            world=cell.workload,
            environment=cell.environment,
            scale=cell.scale,
            number_of_bots=cell.n_bots,
            behavior=cell.behavior,
            world_dir=world_dir,
            world_cache_dir=world_cache_dir,
        )
        kwargs.update(self._overrides_for(cell))
        return MeterstickConfig(**kwargs)

    def cell_iterations(self, cell: CampaignCell) -> int:
        """``cell_config(cell).iterations``, without naming the cell's
        warm-cache snapshot (which builds its starting world)."""
        return self._overrides_for(cell).get("iterations", self.iterations)

    def _overrides_for(self, cell: CampaignCell) -> dict:
        """The fields every matching ``overrides`` entry sets; later
        entries win."""
        fields: dict = {}
        for override in self.overrides:
            where = override.get("where", {})
            if all(
                getattr(cell, attr) == value for attr, value in where.items()
            ):
                fields.update(override.get("set", {}))
        return fields

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        """Load a spec from a ``.json``, ``.yaml``, or ``.yml`` file."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env-dependent
                raise RuntimeError(
                    f"PyYAML is required to load {path.name}; install it "
                    "or provide the spec as JSON"
                ) from exc
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(
                f"campaign spec {path} must contain a mapping at top level"
            )
        return cls.from_dict(data)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path
