"""Meterstick configuration (Fig. 5 component 1, Table 4).

Table 4's experiment-oriented parameters (servers, world, bots,
duration, iterations, scale) configure the runs.  Its deployment-oriented
ones (IPs, SSL keys, ports, JMX endpoints, CPU affinity) have no field:
servers and bots run in the harness's own processes, so there is no node
to address or log into.  A field that no running code reads is deleted,
and a tier-1 test enforces that.

A run knob is declared once, as a dataclass field built with
:func:`knob`: its default, its doc comment, and in the field metadata
its value check, whether ``overrides`` may patch it per cell, and
whether it is part of the measurement fingerprint.  :class:`RunKnobs`
holds the knobs a single-cell :class:`MeterstickConfig` and a campaign
spec share; validation, the spec's per-cell forward, the overridable set
and provenance's exclusion list are all read off these declarations.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, asdict

from repro.cloud.providers import get_environment
from repro.emulation.behavior import BEHAVIORS
from repro.mlg.variants import get_variant
from repro.workloads import WORKLOADS

__all__ = [
    "AT_LEAST_ONE",
    "MeterstickConfig",
    "NON_NEGATIVE",
    "PORT",
    "POSITIVE",
    "RunKnobs",
    "check_knob",
    "knob",
    "stable_crc",
]


def stable_crc(*parts: object) -> int:
    """CRC32 of ``parts`` joined with ``|``, masked to a positive int31.

    The repo-wide stable-hash scheme: CRC32 rather than ``hash()`` because
    Python string hashing is salted per process, which would make seeds
    and job ids unreproducible across runs.  Used for iteration seeds here
    and for campaign job ids in :mod:`repro.campaign.planner`.
    """
    key = "|".join(str(part) for part in parts).encode()
    return zlib.crc32(key) & 0x7FFFFFFF


#: Knob checks: (predicate, what a valid value is — the error's wording).
POSITIVE = (lambda value: value > 0, "must be positive")
NON_NEGATIVE = (lambda value: value >= 0, "must be >= 0")
AT_LEAST_ONE = (lambda value: value >= 1, "must be >= 1")
PORT = (lambda value: 0 <= value <= 65535, "must be 0..65535")


def knob(
    default,
    *,
    check: tuple | None = None,
    overridable: bool = False,
    fingerprint: bool = True,
):
    """Declare a config field together with everything said about it.

    ``check`` is a ``(predicate, requirement)`` pair enforced by
    :func:`check_knob`.  ``overridable`` lets a campaign's ``overrides``
    patch the field per cell.  ``fingerprint=False`` keeps the field out
    of the measurement fingerprint; only fields that locate storage,
    size the worker pool or shape presentation say so, so a knob nobody
    thought about is fingerprinted.
    """
    return field(
        default=default,
        metadata={
            "check": check,
            "overridable": overridable,
            "fingerprint": fingerprint,
        },
    )


def check_knob(cls, name: str, value) -> None:
    """Raise ``ValueError`` unless ``value`` passes ``cls.name``'s check."""
    check = cls.__dataclass_fields__[name].metadata.get("check")
    if check is not None and not check[0](value):
        raise ValueError(f"{name} {check[1]}: {value!r}")


@dataclass
class RunKnobs:
    """The run knobs a single-cell config and a campaign spec share."""

    duration_s: float = knob(60.0, check=POSITIVE, overridable=True)
    iterations: int = knob(1, check=AT_LEAST_ONE, overridable=True)
    #: Where results land; never part of what gets measured.
    output_dir: str = knob("meterstick-out", fingerprint=False)

    # -- transport (wire serving) ------------------------------------------
    #: How bots reach the server: ``"inproc"`` (direct-call sessions,
    #: driven by ``repro run``) or ``"tcp"`` (the asyncio wire front
    #: end, driven by ``repro serve`` + ``repro clients``).
    transport: str = knob(
        "inproc",
        check=(
            lambda value: value in ("inproc", "tcp"),
            "must be one of inproc, tcp",
        ),
        overridable=True,
    )
    #: TCP port the wire front end binds (0 = OS-assigned ephemeral).
    wire_port: int = knob(0, check=PORT, overridable=True)

    # -- world persistence & chunk streaming -------------------------------
    #: Live world directory (region files; autosave writes, reloads read).
    #: ``None`` (the default) keeps the purely in-memory world.  On a
    #: campaign spec it is the root under which each cell gets its own
    #: subtree (and each iteration its own directory).
    world_dir: str | None = knob(None, fingerprint=False)
    #: Simulated seconds between incremental autosaves.
    autosave_interval_s: float = knob(45.0, check=POSITIVE, overridable=True)
    #: Every Nth autosave is a save-all full flush (0 disables flushes).
    autosave_flush_every: int = knob(6, check=NON_NEGATIVE, overridable=True)
    #: Evict clean out-of-view chunks beyond this count (None: no cap).
    max_loaded_chunks: int | None = knob(
        None,
        check=(
            lambda value: value is None or value >= 1,
            "must be >= 1 (or None)",
        ),
        overridable=True,
    )

    # -- observability -----------------------------------------------------
    #: Tick-phase span tracing + slow-tick flight recorder.  Off by
    #: default; untraced runs are bit-identical with the pre-tracing
    #: simulation (the tracer hooks are no-ops).
    trace: bool = knob(False, overridable=True)
    #: A tick is an anomaly when its wall duration exceeds this multiple
    #: of the 50 ms budget.
    slow_tick_factor: float = knob(3.0, check=POSITIVE, overridable=True)
    #: Serve a live pull-based metrics endpoint (Prometheus text +
    #: JSON snapshot) from ``repro serve`` and the campaign executor.
    #: Off by default; obs-off runs are bit-identical with the
    #: endpoint-less path (nothing is constructed, nothing polls).
    obs: bool = knob(False, overridable=True)
    #: TCP port the metrics endpoint binds (0 = OS-assigned ephemeral).
    obs_port: int = knob(0, check=PORT, overridable=True)
    #: Seconds the endpoint keeps serving after the run finishes, so an
    #: in-flight scrape (or a final one) still lands.
    obs_scrape_grace: float = knob(0.0, check=NON_NEGATIVE, overridable=True)

    # -- reproducibility ---------------------------------------------------
    #: Campaign seed.  Not overridable: with the matrix axes it defines a
    #: cell's identity (job id, iteration seeds, export labels).
    seed: int = 0
    #: Simulated idle seconds between iterations (teardown + setup).
    inter_iteration_gap_s: float = knob(20.0, overridable=True)
    #: Start cloud machines with drained burst credits (warm VMs).
    warm_machines: bool = knob(False, overridable=True)

    def check_knobs(self) -> None:
        """Raise ``ValueError`` on the first field failing its check."""
        for name in self.__dataclass_fields__:
            check_knob(type(self), name, getattr(self, name))


@dataclass
class MeterstickConfig(RunKnobs):
    """One benchmark campaign's configuration (Table 4).

    ``servers`` lists the systems under test by variant name; every server
    runs every iteration of the configured ``world`` workload in
    ``environment``.
    """

    # -- systems under test ------------------------------------------------
    servers: list[str] = field(
        default_factory=lambda: ["vanilla", "forge", "papermc"]
    )
    environment: str = "das5-2core"

    # -- workload (a campaign's matrix axes; not overridable per cell) -----
    world: str = "control"
    number_of_bots: int = knob(25, check=NON_NEGATIVE)
    behavior: str = "bounded-random"
    scale: float = knob(1.0, check=POSITIVE)

    #: Read-only warm-boot source: chunks missing from ``world_dir`` load
    #: from here before falling back to generation.  Campaigns fill it
    #: via the executor's warm world cache; iterations never write to it.
    world_cache_dir: str | None = knob(None, fingerprint=False)

    def __post_init__(self) -> None:
        self.validate()

    # -- validation -------------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` on any invalid parameter combination."""
        if not self.servers:
            raise ValueError("at least one server (system under test) needed")
        for name in self.servers:
            get_variant(name)  # raises on unknown
        get_environment(self.environment)
        if self.world.lower() not in WORKLOADS:
            known = ", ".join(sorted(WORKLOADS))
            raise ValueError(
                f"unknown world workload {self.world!r}; known: {known}"
            )
        if self.behavior.lower() not in BEHAVIORS:
            known = ", ".join(BEHAVIORS)
            raise ValueError(
                f"unknown behavior {self.behavior!r}; known: {known}"
            )
        self.check_knobs()

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MeterstickConfig":
        return cls(**data)

    def iteration_seed(self, server: str, iteration: int) -> int:
        """Deterministic per-(server, iteration) seed.

        Uses CRC32 rather than ``hash()`` — Python string hashing is
        salted per process, which would make campaigns unreproducible
        across runs.
        """
        return stable_crc(self.seed, server, iteration)
